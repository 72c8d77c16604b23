"""Seeded instance generator: determinism, validity, weight modes."""

import tracemalloc
from fractions import Fraction

import pytest

from nswfair import validate
from nswfair.generate import FAMILIES, MAX_CELLS, WEIGHT_MODES, random_instance
from nswfair.instance import canonical_json, instance_to_json


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode", WEIGHT_MODES)
def test_generated_instances_validate(family, mode):
    for seed in range(3):
        inst = random_instance(family, n=3, m=5, seed=seed, weight_mode=mode)
        assert validate(inst) == []
        assert inst.agents == ("a0", "a1", "a2")
        assert inst.items == ("g0", "g1", "g2", "g3", "g4")


def test_same_seed_same_bytes():
    a = random_instance("coverage", n=2, m=6, seed=11, weight_mode="random_rational")
    b = random_instance("coverage", n=2, m=6, seed=11, weight_mode="random_rational")
    assert canonical_json(instance_to_json(a)) == canonical_json(instance_to_json(b))


def test_different_seeds_usually_differ():
    docs = {
        canonical_json(instance_to_json(random_instance("additive", n=2, m=6, seed=s)))
        for s in range(5)
    }
    assert len(docs) == 5


def test_symmetric_mode_gives_equal_weights():
    inst = random_instance("additive", n=4, m=4, seed=0)
    assert set(inst.weights) == {Fraction(1, 4)}
    assert inst.is_symmetric()


def test_rational_mode_sums_to_one():
    inst = random_instance("additive", n=4, m=4, seed=3, weight_mode="random_rational")
    assert sum(inst.weights) == 1
    assert all(w > 0 for w in inst.weights)


def test_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        random_instance("mystery", n=2, m=2, seed=0)
    with pytest.raises(ValueError):
        random_instance("additive", n=2, m=2, seed=0, weight_mode="uniformish")
    with pytest.raises(ValueError):
        random_instance("additive", n=0, m=2, seed=0)
    with pytest.raises(ValueError, match="m must be nonnegative"):
        random_instance("additive", n=2, m=-1, seed=0)


def test_zero_items_allowed():
    inst = random_instance("additive", n=2, m=0, seed=0)
    assert inst.items == ()
    assert validate(inst) == []


@pytest.mark.parametrize("n, m", [(10**12, 1), (1, 10**12), (10**12, 0), (MAX_CELLS // 1000 + 1, 1000)])
def test_sizes_beyond_the_limit_are_refused_before_any_allocation(n, m):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceed the generator's limit"):
            random_instance("coverage", n, m, seed=0)
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()


# tracemalloc peak of random_instance(family, 20, 200, 1), in bytes a cell, with a margin: coverage
# and the matroid rank key their tables by element and class ids (202 and 86 bytes a cell on
# CPython 3.11), where name-keyed sets and dicts took 478 and 117.
BYTES_A_CELL = {"coverage": 300, "partition_matroid_rank": 100}


@pytest.mark.parametrize("family", sorted(BYTES_A_CELL))
def test_generated_tables_stay_compact(family):
    tracemalloc.start()
    try:
        inst = random_instance(family, 20, 200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.m == 200 and peak < BYTES_A_CELL[family] * 20 * 200
