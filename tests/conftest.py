"""Shared fixtures: the four-item reference instance, the search's cold start and small builders."""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from nswfair import Additive, Instance, instance

import reference_search


def make_instance(values_by_agent, weights=None, items=None):
    """Additive instance from {agent: {item: value}} dicts, in given order."""
    agents = tuple(values_by_agent)
    first = next(iter(values_by_agent.values()))
    items = tuple(items) if items is not None else tuple(first)
    n = len(agents)
    if weights is None:
        weights = tuple(Fraction(1, n) for _ in agents)
    else:
        weights = tuple(Fraction(num, den) for num, den in weights)
    valuations = tuple(Additive(values_by_agent[a]) for a in agents)
    return Instance(agents=agents, weights=weights, items=items, valuations=valuations)


@pytest.fixture
def e1():
    """Two agents, four items; the worked reference example used throughout."""
    return make_instance(
        {
            "1": {"a": 4, "b": 1, "c": 1, "d": 1},
            "2": {"a": 1, "b": 3, "c": 1, "d": 1},
        }
    )


@pytest.fixture
def cold_start():
    """The search started cold, the first participant holding all of J (see reference_search)."""
    with reference_search.cold_start():
        yield


@contextmanager
def numpy_from(cells):
    """Give every table of at least ``cells`` cells its numpy form, whatever the default
    ``SCREEN_MIN_CELLS``: the welfare map and the matching ranks, the taker screen and the
    screened deal. 0 gives every table its numpy form, ``math.inf`` none."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instance, "SCREEN_MIN_CELLS", cells)
        yield
