"""Brute-force optimum: frozen values, independent enumeration, the reference loop, cost and guard."""

import itertools
import math

import numpy as np
import pytest

from nswfair import (
    Additive,
    Allocation,
    BudgetAdditive,
    Coverage,
    PartitionMatroidRank,
    SizeGuardExceeded,
    brute_force_opt,
    nsw_log,
    oracle,
    ratio_of_logs,
)
from nswfair.generate import FAMILIES, WEIGHT_MODES, random_instance
from nswfair.instance import welfare_term
from nswfair.oracle import SIZE_GUARD
from nswfair.valuations import Valuation, subset_values

from conftest import make_instance
from reference_oracle import reference_opt, reference_owner_masks


def two_agent_opt_by_subsets(inst):
    """Independent check: enumerate agent 1's bundle, hand the rest to agent 2."""
    assert len(inst.agents) == 2
    v1, v2 = (inst.valuation_of(a) for a in inst.agents)
    w1, w2 = inst.weight_floats
    best = 0.0
    for mask in range(2 ** len(inst.items)):
        mine = [j for t, j in enumerate(inst.items) if mask >> t & 1]
        rest = [j for t, j in enumerate(inst.items) if not mask >> t & 1]
        best = max(best, v1.value(mine) ** w1 * v2.value(rest) ** w2)
    return best


def test_reference_opt(e1):
    result = brute_force_opt(e1)
    assert result.enumerated == 16
    assert result.opt_log == pytest.approx(0.5 * math.log(20), rel=1e-12)
    assert result.argmax == Allocation.of({"1": ["a", "c"], "2": ["b", "d"]})
    assert math.exp(result.opt_log) == pytest.approx(two_agent_opt_by_subsets(e1), rel=1e-12)


def test_argmax_prefers_earlier_assignments():
    inst = make_instance({"1": {"a": 2, "b": 2}, "2": {"a": 2, "b": 2}})
    result = brute_force_opt(inst)
    # both splits reach the optimum; the one listing a with the first agent wins
    assert result.argmax == Allocation.of({"1": ["a"], "2": ["b"]})


def test_all_zero_instances_report_minus_inf():
    inst = make_instance({"1": {"a": 1}, "2": {"a": 1}})
    result = brute_force_opt(inst)
    assert result.opt_log == float("-inf")
    assert result.enumerated == 2
    assert result.argmax == Allocation.of({"1": ["a"], "2": []})


@pytest.mark.parametrize("family", FAMILIES)
def test_matches_independent_enumeration(family):
    for seed in range(4):
        inst = random_instance(family, n=2, m=5, seed=seed)
        got = brute_force_opt(inst).opt_log
        expected = two_agent_opt_by_subsets(inst)
        if expected == 0.0:
            assert got == float("-inf")
        else:
            assert math.exp(got) == pytest.approx(expected, rel=1e-12)


def test_ratio_conventions(e1):
    neg = float("-inf")
    assert ratio_of_logs(neg, neg) == 1.0
    assert ratio_of_logs(0.0, neg) == float("inf")
    assert ratio_of_logs(math.log(4), math.log(2)) == pytest.approx(2.0, rel=1e-12)
    opt_log = brute_force_opt(e1).opt_log
    best = Allocation.of({"1": ["a", "d"], "2": ["b", "c"]})
    assert ratio_of_logs(opt_log, nsw_log(e1, best)) == pytest.approx(1.0)
    worse = Allocation.of({"1": ["b", "c"], "2": ["a", "d"]})
    assert ratio_of_logs(opt_log, nsw_log(e1, worse)) == pytest.approx(math.sqrt(5), rel=1e-12)
    assert nsw_log(e1, worse) < opt_log


def test_size_guard_rejects_oversized_instances():
    assert SIZE_GUARD == 10**8
    # 2^27 > 10^8: refused before a single allocation is enumerated
    with pytest.raises(SizeGuardExceeded, match="2\\^27"):
        brute_force_opt(random_instance("additive", n=2, m=27, seed=0))


def test_oracle_validates_input():
    from fractions import Fraction

    from nswfair import Additive, Instance

    broken = Instance(
        agents=("1",),
        weights=(Fraction(1, 2),),
        items=("a",),
        valuations=(Additive({"a": 1}),),
    )
    with pytest.raises(ValueError):
        brute_force_opt(broken)


def assert_same_as_reference(inst):
    got, want = brute_force_opt(inst), reference_opt(inst)
    assert float.hex(got.opt_log) == float.hex(want.opt_log)
    assert got.argmax == want.argmax
    assert got.enumerated == want.enumerated == inst.n**inst.m


@pytest.mark.parametrize("mode", WEIGHT_MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_matches_the_reference_loop_bit_for_bit(family, mode):
    # m < n leaves some agent empty-handed, so every allocation there is -inf
    for n in range(1, 5):
        for m in range(9):
            assert_same_as_reference(random_instance(family, n, m, seed=10 * n + m, weight_mode=mode))


@pytest.mark.parametrize("n", range(1, 6))
def test_owner_masks_equal_the_scatter_passes(n):
    # every k with n^k <= 2^16 (k <= 16 for n = 1), k = 0 included; the items are the last k of m = k + 3
    for k in itertools.takewhile(lambda k: n**k <= 2**16, range(17)):
        got, want = oracle._owner_masks(n, k + 3, k), reference_owner_masks(n, k + 3, k)
        assert got.dtype == want.dtype and got.shape == want.shape == (n, n**k)
        assert got.tobytes() == want.tobytes(), (n, k)


@pytest.mark.parametrize("n, m", [(3, 6), (4, 5)])
@pytest.mark.parametrize("mode", WEIGHT_MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_small_blocks_match_the_reference_loop(family, mode, n, m, monkeypatch):
    # BLOCK = 10 leaves k = 2 trailing items at n = 3 and k = 1 at n = 4, so 81 and 256
    # leading prefixes each run their own block, and each block's best meets the running best
    monkeypatch.setattr(oracle, "BLOCK", 10)
    assert_same_as_reference(random_instance(family, n, m, seed=n + m, weight_mode=mode))


def test_matches_the_reference_loop_on_all_zero_agents():
    zero = make_instance({"1": {"a": 0, "b": 0, "c": 0}, "2": {"a": 1, "b": 2, "c": 3}, "3": {"a": 0, "b": 5, "c": 0}})
    assert brute_force_opt(zero).opt_log == float("-inf")
    assert_same_as_reference(zero)
    assert_same_as_reference(make_instance({"1": {"a": 0}}))


@pytest.mark.parametrize(
    "inst",
    [
        random_instance("partition_matroid_rank", 3, 11, seed=0),
        random_instance("partition_matroid_rank", 3, 11, seed=1, weight_mode="random_rational"),
        # identical agents: by symmetry the optimum is reached in every block
        make_instance({str(i): dict.fromkeys("abcdefghijk", 1) for i in range(3)}),
    ],
    ids=["pmr-symmetric", "pmr-random", "identical"],
)
def test_ties_across_blocks_go_to_the_first(inst):
    assert inst.n**inst.m > oracle.BLOCK  # 3^11: three blocks of 3^10
    assert_same_as_reference(inst)


class CountingValuation(Valuation):
    """Wraps a valuation and counts the value() calls made outside ``validate``."""

    def __init__(self, inner, counter):
        self.inner, self.counter = inner, counter

    @property
    def items(self):
        return self.inner.items

    def value(self, bundle):
        self.counter["calls"] += not self.counter["validating"]
        return self.inner.value(bundle)


def outside_validate(monkeypatch):
    """A call counter whose ``validating`` flag is set while the oracle runs ``validate``."""
    counter = {"calls": 0, "validating": False}
    validate = oracle.validate

    def validating(instance):
        counter["validating"] = True
        try:
            return validate(instance)
        finally:
            counter["validating"] = False

    monkeypatch.setattr(oracle, "validate", validating)
    return counter


def counted(inst, monkeypatch):
    counter = outside_validate(monkeypatch)
    valuations = tuple(CountingValuation(v, counter) for v in inst.valuations)
    return type(inst)(inst.agents, inst.weights, inst.items, valuations), counter


@pytest.mark.parametrize("family", FAMILIES)
def test_each_agent_and_bundle_is_evaluated_once(family, monkeypatch):
    inst, counter = counted(random_instance(family, 3, 8, seed=1), monkeypatch)
    brute_force_opt(inst)
    assert counter["calls"] == 3 * 2**8  # the per-allocation loop made about 18.5k


@pytest.mark.parametrize("family", FAMILIES)
def test_log_tables_equal_the_per_element_map(family, monkeypatch):
    # The table is mapped in place BLOCK entries at a time; with BLOCK = 100, 2^10 entries
    # make 11 chunks, the last one short. Every entry, the -inf of each zero value among
    # them, equals welfare_term mapped over the numpy scalars one by one, bit for bit.
    monkeypatch.setattr(oracle, "BLOCK", 100)
    inst = random_instance(family, 3, 10, seed=1, weight_mode="random_rational")
    for i, v in enumerate(inst.valuations):
        vals = subset_values(v, inst.items)
        expected = np.fromiter((welfare_term(inst.weight_floats[i], x) for x in vals), dtype=float, count=vals.size)
        table = oracle._log_table(inst, i)
        assert expected[0] == -math.inf
        assert table.dtype == expected.dtype and table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("mode", WEIGHT_MODES)
def test_family_tables_call_no_value(mode, monkeypatch):
    counter = outside_validate(monkeypatch)
    for kind in (Additive, BudgetAdditive, Coverage, PartitionMatroidRank):
        def value(self, bundle, base=kind.value):
            counter["calls"] += not counter["validating"]
            return base(self, bundle)

        monkeypatch.setattr(kind, "value", value)
    for family in FAMILIES:
        brute_force_opt(random_instance(family, 3, 8, seed=1, weight_mode=mode))
        assert counter["calls"] == 0, family  # the tables come from the bundle states alone


def test_one_agent_is_one_allocation_and_builds_no_table(monkeypatch):
    inst, counter = counted(random_instance("coverage", 1, 40, seed=0), monkeypatch)
    monkeypatch.setattr(oracle, "subset_values", None)  # a table would fail here
    result = brute_force_opt(inst)
    assert counter["calls"] == 1 and result.enumerated == 1
    assert result.argmax == Allocation.of({inst.agents[0]: inst.items})
    assert result.opt_log == nsw_log(inst, result.argmax)
    assert_same_as_reference(random_instance("coverage", 1, 40, seed=0))


@pytest.mark.parametrize("n, m", [(3, 8), (4, 6)])
@pytest.mark.parametrize("mode", WEIGHT_MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_opt_log_is_the_argmax_nsw_log_bit_for_bit(family, mode, n, m):
    inst = random_instance(family, n, m, seed=3, weight_mode=mode)
    result = brute_force_opt(inst)
    assert result.opt_log.hex() == nsw_log(inst, result.argmax).hex()


def test_size_guard_refuses_before_any_table(monkeypatch):
    monkeypatch.setattr(oracle, "subset_values", None)
    with pytest.raises(SizeGuardExceeded):
        brute_force_opt(random_instance("additive", n=3, m=17, seed=0))
