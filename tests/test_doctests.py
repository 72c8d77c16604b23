"""The docstring examples of every nswfair module, and README's quickstart, run and pass."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import nswfair


@pytest.mark.parametrize("name", sorted(info.name for info in pkgutil.iter_modules(nswfair.__path__, "nswfair.")))
def test_module_doctests_pass(name):
    # import_module, not attribute access: the package re-exports some
    # functions under their module's name.
    failed, _ = doctest.testmod(importlib.import_module(name))
    assert failed == 0


def test_the_readme_quickstart_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README's Library quickstart has no python block"
    exec(compile(block.group(1), "README.md (Library quickstart)", "exec"), {})
