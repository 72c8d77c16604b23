"""The docstring examples of every nswfair module run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import nswfair


@pytest.mark.parametrize("name", sorted(info.name for info in pkgutil.iter_modules(nswfair.__path__, "nswfair.")))
def test_module_doctests_pass(name):
    # import_module, not attribute access: the package re-exports some
    # functions under their module's name.
    failed, _ = doctest.testmod(importlib.import_module(name))
    assert failed == 0
