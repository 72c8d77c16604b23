"""Half-EFX checker, feasibility graph, trim-or-reallocate, envy cycles."""

import math
import random

import pytest

from nswfair import (
    Allocation,
    LemmaViolation,
    build_feasibility_graph,
    envy_cycle_complete,
    guarantee_half_efx,
    half_efx_check,
    make_fair_or_efficient,
    solve_nsw,
)
from nswfair.generate import FAMILIES, random_instance

from conftest import make_instance


def sym_welfare_log(inst, alloc):
    total = 0.0
    for agent in inst.agents:
        val = inst.valuation_of(agent).value(alloc.bundle(agent))
        if val <= 0:
            return float("-inf")
        total += math.log(val)
    return total / len(inst.agents)


def test_checker_accepts_the_balanced_split(e1):
    alloc = Allocation.of({"1": ["a", "d"], "2": ["b", "c"]})
    assert half_efx_check(e1, alloc) == []


def test_checker_lists_every_witness(e1):
    lopsided = Allocation.of({"1": ["a", "b", "c", "d"], "2": []})
    assert half_efx_check(e1, lopsided) == [
        ("2", "1", "a"),
        ("2", "1", "b"),
        ("2", "1", "c"),
        ("2", "1", "d"),
    ]
    smaller = Allocation.of({"1": ["a", "b"], "2": []})
    assert half_efx_check(e1, smaller) == [("2", "1", "a"), ("2", "1", "b")]


def test_checker_is_strict_at_exactly_half():
    inst = make_instance({"1": {"a": 1, "b": 1, "c": 2}, "2": {"a": 1, "b": 1, "c": 1}})
    alloc = Allocation.of({"1": ["a"], "2": ["b", "c"]})
    # dropping b leaves {c} worth 2, and own value 1 is exactly half of it
    assert half_efx_check(inst, alloc) == []


def test_feasibility_graph_self_edges(e1):
    graph = build_feasibility_graph(e1, [frozenset({"a", "d"}), frozenset({"b", "c"})])
    assert graph.edges == frozenset({(0, 0), (1, 1)})
    assert graph.neighbors(0) == [0]


def test_feasibility_graph_foreign_edge():
    inst = make_instance({"1": {"a": 1, "b": 10, "c": 10}, "2": {"a": 1, "b": 1, "c": 1}})
    graph = build_feasibility_graph(inst, [frozenset({"a"}), frozenset({"b", "c"})])
    assert graph.edges == frozenset({(0, 1), (1, 1)})


def test_empty_input_bundle_collapses_to_empty_fair_split(e1):
    outcome = make_fair_or_efficient(e1, Allocation.of({"1": ["a"]}))
    assert outcome.tag == "half_efx"
    assert all(outcome.allocation.bundle(a) == frozenset() for a in e1.agents)


def test_already_fair_input_passes_through(e1):
    alloc = Allocation.of({"1": ["a", "d"], "2": ["b", "c"]})
    outcome = make_fair_or_efficient(e1, alloc)
    assert outcome.tag == "half_efx"
    assert outcome.allocation == alloc


def test_trim_branch_reaches_a_fair_core():
    # Agent 1 is matched only after agent 2's bundle is trimmed down to {c};
    # the owner keeps exactly half its input value, so trimming is allowed.
    inst = make_instance({"1": {"a": 1, "b": 5, "c": 5}, "2": {"a": 1, "b": 1, "c": 1}})
    outcome = make_fair_or_efficient(inst, Allocation.of({"1": ["a"], "2": ["b", "c"]}))
    assert outcome.tag == "half_efx"
    assert outcome.allocation == Allocation.of({"1": ["a"], "2": ["c"]})


def test_reallocation_branch_shrinks_support():
    # Trimming b would cost its owner more than half, so the unmatched agent
    # takes the trimmed bundle instead and the owner keeps the removed part.
    inst = make_instance({"1": {"a": 1, "b": 8, "c": 8}, "2": {"a": 1, "b": 4, "c": 1}})
    before = Allocation.of({"1": ["a"], "2": ["b", "c"]})
    outcome = make_fair_or_efficient(inst, before)
    assert outcome.tag == "support_shrunk"
    assert outcome.allocation == Allocation.of({"1": ["c"], "2": ["b"]})
    assert sym_welfare_log(inst, outcome.allocation) >= sym_welfare_log(inst, before) - 1e-9


def test_envy_cycle_requires_settled_pool(e1):
    with pytest.raises(ValueError):
        envy_cycle_complete(e1, Allocation.of({"1": ["a"], "2": []}), {"b"})


def test_envy_cycle_without_pool_is_identity(e1):
    alloc = Allocation.of({"1": ["a", "d"], "2": ["b", "c"]})
    assert envy_cycle_complete(e1, alloc, set()) == alloc


def test_envy_cycle_rotates_then_places():
    inst = make_instance({"1": {"a": 1, "b": 5, "c": 1}, "2": {"a": 5, "b": 1, "c": 1}})
    result = envy_cycle_complete(inst, Allocation.of({"1": ["a"], "2": ["b"]}), {"c"})
    # mutual envy swaps the two bundles, then the first agent absorbs c
    assert result == Allocation.of({"1": ["b", "c"], "2": ["a"]})


def test_envy_cycle_feeds_the_unenvied_agent():
    inst = make_instance({"1": {"a": 3, "b": 1, "c": 1}, "2": {"a": 5, "b": 2, "c": 2}})
    result = envy_cycle_complete(inst, Allocation.of({"1": ["a"], "2": ["b"]}), {"c"})
    assert result == Allocation.of({"1": ["a"], "2": ["b", "c"]})


def test_guarantee_needs_equal_weights():
    inst = make_instance(
        {"1": {"a": 1, "b": 1}, "2": {"a": 1, "b": 1}},
        weights=[(3, 4), (1, 4)],
    )
    with pytest.raises(ValueError):
        guarantee_half_efx(inst, Allocation.of({"1": ["a"], "2": ["b"]}))


def test_guarantee_keeps_a_fair_input(e1):
    alloc = Allocation.of({"1": ["a", "d"], "2": ["b", "c"]})
    assert guarantee_half_efx(e1, alloc) == alloc


def test_guarantee_fixes_the_all_to_one_split(e1):
    greedy = Allocation.of({"1": ["a", "b", "c", "d"], "2": []})
    fair = guarantee_half_efx(e1, greedy)
    assert fair == Allocation.of({"1": ["a", "c", "d"], "2": ["b"]})
    assert fair.is_complete(e1)
    assert half_efx_check(e1, fair) == []


def test_guarantee_completes_partial_inputs(e1):
    fair = guarantee_half_efx(e1, Allocation.of({"1": ["a"], "2": ["b"]}))
    assert fair.is_complete(e1)
    assert half_efx_check(e1, fair) == []


@pytest.mark.parametrize("family", FAMILIES)
def test_guarantee_on_solver_outputs(family):
    for seed in range(5):
        inst = random_instance(family, n=3, m=6, seed=seed)
        report = solve_nsw(inst, eps=0.1)
        fair = guarantee_half_efx(inst, report.allocation)
        assert fair.is_complete(inst)
        assert half_efx_check(inst, fair) == []
        assert sym_welfare_log(inst, fair) >= report.log_nsw - math.log(2) - 1e-9


def test_fairness_outcomes_hold_on_random_partials():
    for seed in range(40):
        inst = random_instance(FAMILIES[seed % 4], n=3, m=5, seed=1000 + seed)
        rng = random.Random(seed)
        bundles = {a: set() for a in inst.agents}
        for item in inst.items:
            pick = rng.randrange(len(inst.agents) + 1)
            if pick < len(inst.agents):
                bundles[inst.agents[pick]].add(item)
        before = Allocation.of(bundles)
        outcome = make_fair_or_efficient(inst, before)
        after = outcome.allocation
        if outcome.tag == "half_efx":
            assert half_efx_check(inst, after) == []
            assert sym_welfare_log(inst, after) >= sym_welfare_log(inst, before) - math.log(2) - 1e-9
        else:
            support_in = set().union(*(before.bundle(a) for a in inst.agents))
            support_out = set().union(*(after.bundle(a) for a in inst.agents))
            assert support_out < support_in
            assert sym_welfare_log(inst, after) >= sym_welfare_log(inst, before) - 1e-9


def test_outcome_contract_raises_on_a_failed_checker(e1, monkeypatch):
    # The contract is a real check, not an assert, so it holds under python -O.
    import nswfair.efx as efx_mod

    monkeypatch.setattr(efx_mod, "half_efx_check", lambda inst, alloc: [("2", "1", "a")])
    with pytest.raises(LemmaViolation, match="fails the checker"):
        make_fair_or_efficient(e1, Allocation.of({"1": ["a", "d"], "2": ["b", "c"]}))
