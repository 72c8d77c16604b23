"""Brute-force optimum: frozen values, independent enumeration, guard."""

import math

import pytest

from nswfair import (
    Allocation,
    SizeGuardExceeded,
    brute_force_opt,
    nsw_log,
    ratio_of_logs,
)
from nswfair.generate import FAMILIES, random_instance
from nswfair.oracle import SIZE_GUARD

from conftest import make_instance


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
