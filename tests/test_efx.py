"""Half-EFX checker, feasibility graph, trim-or-reallocate, envy cycles."""

import itertools
import math
import random

import pytest

from nswfair import (
    Allocation,
    AllocationError,
    Instance,
    LemmaViolation,
    build_feasibility_graph,
    envy_cycle_complete,
    guarantee_half_efx,
    half_efx_check,
    make_fair_or_efficient,
    solve_nsw,
)
from nswfair.efx import _loose_upgrade
from nswfair.generate import FAMILIES, random_instance
from nswfair.valuations import Valuation

from conftest import make_instance
from reference_efx import (
    reference_envy_cycle_complete,
    reference_guarantee_half_efx,
    reference_half_efx_check,
    reference_make_fair_or_efficient,
    reference_loose_upgrade,
)
from test_local_search import SquareRootOfSum


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


@pytest.mark.parametrize("pool", [{"z"}, {"a"}], ids=["foreign item", "allocated item"])
def test_envy_cycle_pool_holds_only_loose_instance_items(e1, pool):
    with pytest.raises(ValueError, match="unknown or already allocated"):
        envy_cycle_complete(e1, Allocation.of({"1": ["a"], "2": ["b"]}), pool)


MALFORMED_ALLOCATIONS = {
    "item twice, full driver": (guarantee_half_efx, {"1": ["a", "b"], "2": ["a", "c", "d"]}),
    "item twice, one pass": (make_fair_or_efficient, {"1": ["a", "b"], "2": ["a", "c", "d"]}),
    "unknown agent": (guarantee_half_efx, {"1": ["a", "b"], "3": ["c", "d"]}),
    "foreign item": (half_efx_check, {"1": ["a", "z"], "2": ["b"]}),
}


@pytest.mark.parametrize("fn,bundles", MALFORMED_ALLOCATIONS.values(), ids=MALFORMED_ALLOCATIONS)
def test_fairness_functions_reject_malformed_allocations(e1, fn, bundles):
    with pytest.raises(AllocationError):
        fn(e1, Allocation.of(bundles))


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


@pytest.mark.parametrize("fn", [guarantee_half_efx, make_fair_or_efficient])
def test_fairness_needs_equal_weights(fn):
    inst = make_instance(
        {"1": {"a": 1, "b": 1}, "2": {"a": 1, "b": 1}},
        weights=[(3, 4), (1, 4)],
    )
    with pytest.raises(ValueError, match="equal agent weights"):
        fn(inst, Allocation.of({"1": ["a"], "2": ["b"]}))


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
    # The contract is a real check, not an assert, so it holds under python -O. The balanced split
    # has no witness, so the scan is patched to report one and send it down the graph path.
    import nswfair.efx as efx_mod

    monkeypatch.setattr(efx_mod, "_half_efx_witnesses", lambda inst, bundles: iter([("2", "1", "a")]))
    monkeypatch.setattr(efx_mod, "half_efx_check", lambda inst, alloc: [("2", "1", "a")])
    with pytest.raises(LemmaViolation, match="fails the checker"):
        make_fair_or_efficient(e1, Allocation.of({"1": ["a", "d"], "2": ["b", "c"]}))


class ValueOnly(Valuation):
    """Wraps a valuation behind value() alone, so its bundle state asks value() each time."""

    kind = "test_value_only"

    def __init__(self, base):
        self.base = base

    @property
    def items(self):
        return self.base.items

    def value(self, bundle):
        return self.base.value(bundle)


def reference_edges(inst, bundles):
    """The feasibility graph's edges from value() on sets."""
    edges = set()
    for i, v in enumerate(inst.valuations):
        removal_max = max([0.0] + [v.value(b - {j}) for b in bundles for j in b])
        own = v.value(bundles[i])
        edges |= {(i, i)} if own >= 0.5 * removal_max else set()
        edges |= {
            (i, k) for k, b in enumerate(bundles) if k != i and v.value(b) > 2.0 * own and v.value(b) >= removal_max
        }
    return frozenset(edges)


def reference_best_removal(inst, bundles):
    """Per agent, the first (bundle, item, v(S_k - j)) in bundle and item order with the largest value."""
    removals = []
    for v in inst.valuations:
        cells = [(k, j, v.value(b - {j})) for k, b in enumerate(bundles) for j in inst.sort_items(b)]
        removals.append(max(cells, key=lambda cell: cell[2], default=None))
    return tuple(removals)


def _state_read_cases():
    """(instance, allocation) pairs: the random partial allocations of acceptance criterion 7, then
    square roots of additive valuations, which have no state of their own."""
    rng = random.Random(20260814)
    cases = []
    for t in range(1000):
        inst = random_instance(FAMILIES[t % 4], n=2 + t % 2, m=4 + t % 3, seed=40_000 + t)
        picks = [rng.randrange(inst.n + 1) for _ in inst.items]
        cases.append((inst, picks))
    for seed in range(20):
        base = random_instance("additive", 3, 6, seed)
        roots = tuple(SquareRootOfSum(v) for v in base.valuations)
        inst = Instance(base.agents, base.weights, base.items, roots)
        cases.append((inst, [rng.randrange(inst.n + 1) for _ in inst.items]))
    for inst, picks in cases:
        bundles = [frozenset(j for j, p in zip(inst.items, picks) if p == i) for i in range(inst.n)]
        yield inst, Allocation({a: b for a, b in zip(inst.agents, bundles)})


def test_state_reads_match_value_reads_on_random_partials():
    for inst, alloc in _state_read_cases():
        bundles = [alloc.bundle(a) for a in inst.agents]
        reference = Instance(inst.agents, inst.weights, inst.items, tuple(map(ValueOnly, inst.valuations)))
        if all(bundles):
            graph = build_feasibility_graph(inst, bundles)
            assert graph.edges == reference_edges(inst, bundles)
            assert graph.best_removal == reference_best_removal(inst, bundles)
        assert make_fair_or_efficient(inst, alloc) == make_fair_or_efficient(reference, alloc)


def _lopsided(inst):
    """Agents 1..n-1 hold one item each, the first n - 1 items; agent 0 holds the rest."""
    held = {a: [inst.items[k - 1]] for k, a in enumerate(inst.agents) if k}
    return Allocation.of({inst.agents[0]: inst.items[inst.n - 1 :], **held})


def _round_robin(inst):
    return Allocation.of({a: inst.items[k :: inst.n] for k, a in enumerate(inst.agents)})


def test_fair_or_efficient_matches_the_always_graph_reference():
    # An input with no witness skips the graph, the matching and the outcome checks; the reference
    # always runs them. Every pass of the stage's loop is compared: on both sets of random partials,
    # on solver outputs, and on round-robin and lopsided starts.
    starts = [*_state_read_cases(), *_random_partials(400, 20261018)]
    for family, (n, m), seed in itertools.product(FAMILIES, [(3, 8), (12, 120), (20, 200)], (1, 2)):
        inst = random_instance(family, n, m, seed)
        starts.append((inst, solve_nsw(inst, 0.1).allocation))
        if n < 20 and seed == 1:
            starts += [(inst, _round_robin(inst)), (inst, _lopsided(inst))]
    runs = {"empty bundle": 0, "fair input": 0, "graph path": 0}
    for inst, current in starts:
        for _ in range(inst.m + 2):
            outcome = make_fair_or_efficient(inst, current)
            assert outcome == reference_make_fair_or_efficient(inst, current)
            if not all(current.bundle(a) for a in inst.agents):
                runs["empty bundle"] += 1
            else:
                runs["graph path" if half_efx_check(inst, current) else "fair input"] += 1
            current = outcome.allocation
            if outcome.tag == "half_efx":
                break
    # 1,583 stage runs; the counts show that both sides of the shortcut are compared
    assert runs == {"empty bundle": 718, "fair input": 603, "graph path": 262}


def test_fair_solver_output_skips_the_graph(monkeypatch):
    # Coverage 12x120 seed 1: the solver's allocation is complete and 1/2-EFX, so the stage scans it
    # once (n^2 value() calls: each agent's own bundle and every other bundle, none worth more than
    # twice the own) and returns it, with no graph, matching, outcome check or own value.
    import nswfair.efx as efx_mod

    base = random_instance("coverage", 12, 120, 1)
    alloc = solve_nsw(base, 0.1).allocation
    inst = Instance(base.agents, base.weights, base.items, tuple(map(CountingValuation, base.valuations)))

    def forbidden(*args, **kwargs):
        raise AssertionError("the graph path ran on a 1/2-EFX input")

    for name in ("build_feasibility_graph", "solve_lex_assignment", "_outcome"):
        monkeypatch.setattr(efx_mod, name, forbidden)
    assert guarantee_half_efx(inst, alloc) == alloc
    assert sum(v.calls for v in inst.valuations) == 12 * 12


def test_witness_scan_stops_at_the_first_witness(monkeypatch):
    # On a lopsided partition-matroid 40x400 start the first witness is agent a3's, after 123
    # value() calls: 40 each for agents 0-2, whose bundles are worth at least half of every other
    # (ranks cap agent 0's), then a3's own bundle, bundle 0 and its first removal. The full
    # half_efx_check there makes 10,264. The pass then goes on to build the graph.
    import nswfair.efx as efx_mod

    base = random_instance("partition_matroid_rank", 40, 400, 1)
    inst = Instance(base.agents, base.weights, base.items, tuple(map(CountingValuation, base.valuations)))

    class GraphReached(Exception):
        pass

    def reached(inst, bundles):
        raise GraphReached

    monkeypatch.setattr(efx_mod, "build_feasibility_graph", reached)
    with pytest.raises(GraphReached):
        make_fair_or_efficient(inst, _lopsided(inst))
    assert sum(v.calls for v in inst.valuations) == 123


SWEEP_SIZES = [(2, 5), (3, 8), (4, 12), (5, 20), (10, 100), (20, 200)]


def test_envy_cycle_completion_matches_the_reference(monkeypatch):
    # Each staged allocation and pool that guarantee_half_efx hands to envy-cycle completion,
    # from the solver's allocation and from all items with the first agent, also goes through
    # the reference, which rebuilds every v_i(S_k) after each rotation and item.
    import nswfair.efx as efx_mod

    complete, find_cycle = efx_mod.envy_cycle_complete, efx_mod._find_cycle
    seen = {"pools": 0, "rotations": 0}

    def checked(inst, alloc, pool):
        result = complete(inst, alloc, pool)
        assert result == reference_envy_cycle_complete(inst, alloc, pool)
        seen["pools"] += bool(pool)
        return result

    def counted(adj):
        cycle = find_cycle(adj)
        seen["rotations"] += cycle is not None
        return cycle

    monkeypatch.setattr(efx_mod, "envy_cycle_complete", checked)
    monkeypatch.setattr(efx_mod, "_find_cycle", counted)
    for family, (n, m), seed in itertools.product(FAMILIES, SWEEP_SIZES, range(6)):
        inst = random_instance(family, n, m, seed)
        for start in (solve_nsw(inst, 0.1).allocation, Allocation.of({inst.agents[0]: inst.items})):
            assert guarantee_half_efx(inst, start).is_complete(inst)
    # the sweep rotates: these counts are part of what it checks
    assert seen == {"pools": 150, "rotations": 516}


class CountingValuation(ValueOnly):
    """Counts the value() calls made on it."""

    def __init__(self, base):
        super().__init__(base)
        self.calls = 0

    def value(self, bundle):
        self.calls += 1
        return self.base.value(bundle)


@pytest.mark.parametrize("loose", range(5))
def test_envy_cycle_value_calls(monkeypatch, loose):
    # Each agent prefers the next agent's bundle, so the first item waits for one rotation.
    # The table costs n^2 calls when the pool is non-empty, each item n more, a rotation none.
    import nswfair.efx as efx_mod

    base = make_instance(
        {
            "1": {"a": 5, "b": 6, "c": 1, "d": 1, "e": 1, "f": 1, "g": 1},
            "2": {"a": 1, "b": 5, "c": 6, "d": 1, "e": 1, "f": 1, "g": 1},
            "3": {"a": 6, "b": 1, "c": 5, "d": 1, "e": 1, "f": 1, "g": 1},
        }
    )
    inst = Instance(base.agents, base.weights, base.items, tuple(map(CountingValuation, base.valuations)))
    inst.singleton_array  # the instance's cached table, not part of the count
    find_cycle, cycles = efx_mod._find_cycle, []

    def recorded(adj):
        cycles.append(find_cycle(adj))
        return cycles[-1]

    monkeypatch.setattr(efx_mod, "_find_cycle", recorded)
    for v in inst.valuations:
        v.calls = 0
    pool = set("defg"[:loose])
    result = envy_cycle_complete(inst, Allocation.of({"1": ["a"], "2": ["b"], "3": ["c"]}), pool)
    assert sum(v.calls for v in inst.valuations) == (3 * 3 + 3 * loose if loose else 0)
    assert [c for c in cycles if c] == ([[0, 1, 2]] if loose else [])
    assert result.is_complete(inst) == (loose == 4)
    assert half_efx_check(inst, result) == []


@pytest.mark.parametrize("family", FAMILIES)
def test_envy_cycle_completion_on_family_states_calls_no_value(monkeypatch, family):
    # The generator families answer the table from their own bundle states, so completing
    # from all items with the first agent (34 loose items) evaluates nothing.
    import nswfair.efx as efx_mod

    inst = random_instance(family, 6, 40, 0)
    staged = []
    monkeypatch.setattr(efx_mod, "envy_cycle_complete", lambda inst, alloc, pool: staged.append((alloc, pool)))
    guarantee_half_efx(inst, Allocation.of({inst.agents[0]: inst.items}))
    [(alloc, pool)] = staged
    assert len(pool) == 34
    kind, calls = type(inst.valuations[0]), []
    base_value = kind.value
    monkeypatch.setattr(kind, "value", lambda self, bundle: calls.append(bundle) or base_value(self, bundle))
    result = envy_cycle_complete(inst, alloc, pool)
    assert calls == []
    assert result == reference_envy_cycle_complete(inst, alloc, pool)


def _random_partials(count, seed):
    """(instance, allocation) pairs, all families at 2-5 agents and 6-12 items, each item held by a
    random agent with probability 0.35 and loose otherwise."""
    rng = random.Random(seed)
    for t in range(count):
        inst = random_instance(FAMILIES[t % 4], n=2 + t % 4, m=6 + t % 7, seed=50_000 + t)
        picks = [rng.randrange(inst.n) if rng.random() < 0.35 else None for _ in inst.items]
        bundles = [frozenset(j for j, p in zip(inst.items, picks) if p == i) for i in range(inst.n)]
        yield inst, Allocation(dict(zip(inst.agents, bundles)))


def test_checker_matches_the_full_scan_on_random_partials():
    # The checker skips each bundle worth at most twice the agent's own; the reference scans all.
    with_witnesses = 0
    for inst, alloc in _random_partials(400, 20261018):
        witnesses = half_efx_check(inst, alloc)
        assert witnesses == reference_half_efx_check(inst, alloc)
        with_witnesses += bool(witnesses)
    assert with_witnesses == 195


def test_singleton_upgrades_match_the_reference_loop():
    # guarantee_half_efx keeps one list of own values; the reference asks value() on every pass.
    upgrades = []
    for inst, alloc in _random_partials(400, 20261018):
        expected, count = reference_guarantee_half_efx(inst, alloc)
        assert guarantee_half_efx(inst, alloc) == expected
        upgrades.append(count)
    assert sum(count >= 2 for count in upgrades) == 344 and max(upgrades) == 14


def test_singleton_upgrades_call_value_once_per_agent(monkeypatch):
    # Three upgrades in a chain, each freeing the item the next agent wants: 1 takes d and frees
    # a, 2 takes a and frees b, 3 takes e. The old rescan made 1 + 2 + 3 + 3 value() calls.
    import nswfair.efx as efx_mod

    base = make_instance(
        {
            "1": {"a": 1, "b": 0, "c": 0, "d": 5, "e": 0},
            "2": {"a": 3, "b": 1, "c": 0, "d": 0, "e": 0},
            "3": {"a": 0, "b": 0, "c": 1, "d": 0, "e": 2},
        }
    )
    inst = Instance(base.agents, base.weights, base.items, tuple(map(CountingValuation, base.valuations)))
    inst.singleton_array  # the instance's cached table, not part of the count
    for v in inst.valuations:
        v.calls = 0
    staged = []
    monkeypatch.setattr(efx_mod, "make_fair_or_efficient", lambda _, alloc: efx_mod.FairnessOutcome("half_efx", alloc))
    monkeypatch.setattr(efx_mod, "envy_cycle_complete", lambda inst, alloc, pool: staged.append((alloc, pool)))
    guarantee_half_efx(inst, Allocation.of({"1": ["a"], "2": ["b"], "3": ["c"]}))
    assert staged == [(Allocation.of({"1": ["d"], "2": ["a"], "3": ["e"]}), {"b", "c"})]
    assert [v.calls for v in inst.valuations] == [1, 1, 1]


def test_loose_upgrade_matches_the_reference_rescan():
    # One numpy comparison over the pool's columns finds the (agent, item) the rescan finds one
    # comparison at a time. Own values are drawn from each agent's own singleton values, so many
    # are ties, which must not upgrade; some pools are empty.
    rng, outcomes = random.Random(20261020), set()
    for family in FAMILIES:
        for seed in range(40):
            inst = random_instance(family, rng.randint(1, 5), rng.randint(1, 12), seed)
            own = [rng.choice([0.0, *row]) for row in inst.singleton_array.tolist()]
            loose = inst.sort_items(rng.sample(inst.items, rng.randint(0, inst.m)))
            expected = reference_loose_upgrade(inst, own.__getitem__, loose)
            assert _loose_upgrade(inst, own, loose) == expected
            outcomes.add((expected is None, bool(loose)))
    assert outcomes == {(True, False), (True, True), (False, True)}
    inst = make_instance({"1": {"a": 2, "b": 1}, "2": {"a": 1, "b": 3}})
    assert _loose_upgrade(inst, [2.0, 3.0], ["a", "b"]) is None  # own == v_i({j}) is no upgrade
    assert _loose_upgrade(inst, [2.0, 2.0], ["a", "b"]) == (1, "b")
    assert _loose_upgrade(inst, [0.5, 0.5], ["b"]) == (0, "b")
    assert _loose_upgrade(inst, [0.5, 0.5], []) is None
