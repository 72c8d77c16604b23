"""Swap search: frozen trace values, certificates, prices, spending caps."""

import importlib
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nswfair import (
    Additive,
    AllocationError,
    BudgetAdditive,
    Coverage,
    Instance,
    InvariantViolation,
    PartitionMatroidRank,
    UnknownItem,
    certificate_table,
    check_spending,
    epsilon_bar,
    local_search,
    prices,
    solve_nsw,
    verify_local_opt,
)
from nswfair.valuations import VALUATION_KINDS, BundleState, ExplicitTable, Valuation, _CountState, _SumState
from nswfair.generate import FAMILIES, WEIGHT_MODES, random_instance
from nswfair.search import _Gains, swap_bound

from conftest import make_instance
from reference_search import STARTS, full_restart_search, full_scan, scan, search_start


def test_epsilon_bar_reference_values():
    assert epsilon_bar(0.1, 1) == pytest.approx(0.1, abs=1e-15)
    assert epsilon_bar(3.0, 2) == pytest.approx(1.0, abs=1e-15)
    assert epsilon_bar(0.1, 4) == pytest.approx(0.024113689084445132, abs=1e-15)


@pytest.mark.parametrize("eps,m", [(0.1, 1), (0.1, 4), (3.0, 2), (0.5, 7), (2.0, 13)])
def test_epsilon_bar_compounds_back(eps, m):
    assert (1.0 + epsilon_bar(eps, m)) ** m == pytest.approx(1.0 + eps, rel=1e-12)


def test_epsilon_bar_rejects_bad_arguments():
    # 5e-324 leaves eps_bar at 0 over 6 items and 1e-320 overflows the swap bound
    for eps, m in [(0.0, 3), (0.1, 0), (math.nan, 3), (math.inf, 3), (5e-324, 6), (1e-320, 6)]:
        with pytest.raises(ValueError):
            epsilon_bar(eps, m)


def test_two_agent_leftover_search(e1, cold_start):
    # Leftovers {c, d} after the matching phase; both agents value each at 1. From the
    # cold start one swap reaches the optimum; the greedy start deals it and makes none.
    eb = epsilon_bar(0.1, 4)
    result = local_search(e1, ["c", "d"], eb)
    assert result.abar == ("1", "2")
    assert _Gains(e1, ["c", "d"]).offset == {"1": 1.0, "2": 1.0}
    assert result.bundles["1"] == frozenset({"d"})
    assert result.bundles["2"] == frozenset({"c"})
    assert len(result.trace) == 1
    move = result.trace[0]
    assert (move.giver, move.item, move.taker) == ("1", "c", "2")
    assert move.log_gain == pytest.approx(0.5 * math.log(4.0 / 3.0), rel=1e-12)
    assert result.certificate is None  # the search leaves certifying to the recheck
    cert = verify_local_opt(certificate_table(e1, result.bundles), eb)
    assert cert.violations == ()
    assert cert.threshold == pytest.approx(math.log1p(eb), rel=1e-15)
    assert cert.max_log_gain <= cert.threshold
    assert cert.triples_checked == 2


def test_shift_is_the_largest_single_value_in_the_universe_passed_out_of_order():
    # Items in index order a, b, c, d; the universe is passed out of order and
    # agent 1's best single value in it, 2, is tied between b and d.
    inst = make_instance(
        {
            "1": {"a": 9, "b": 2, "c": 1, "d": 2},
            "2": {"a": 1, "b": 0, "c": 3, "d": 0},
            "3": {"a": 5, "b": 0, "c": 0, "d": 0},  # nothing in the universe: takes no part
        }
    )
    result = local_search(inst, ["d", "c", "b"], epsilon_bar(0.1, 4))
    assert result.abar == ("1", "2")
    assert _Gains(inst, ["d", "c", "b"]).offset == {"1": 2.0, "2": 3.0}


@pytest.mark.parametrize("family", FAMILIES)
def test_shift_is_the_largest_single_value_and_abar_values_the_universe(family):
    # vbar({j}) <= 2 * vbar(empty) for every j in J, and the agents with a positive
    # single value in J are exactly those with v(J) > 0.
    inst = random_instance(family, 6, 14, 2)
    universe = inst.items[3:]
    result = local_search(inst, universe, epsilon_bar(0.1, inst.m))
    table = _Gains(inst, universe)
    assert result.abar == tuple(a for a, v in zip(inst.agents, inst.valuations) if v.value(universe) > 0.0)
    assert tuple(table.offset) == result.abar
    for agent in result.abar:
        v = inst.valuation_of(agent)
        assert table.offset[agent] == max(v.value([j]) for j in universe) > 0.0


def test_trace_gains_replay_as_potential_deltas(e1, cold_start):
    eb = epsilon_bar(0.1, 4)
    result = local_search(e1, ["c", "d"], eb)
    held = {a: set() for a in e1.agents}
    held["1"] = {"c", "d"}
    offset = {a: max(e1.valuation_of(a).value([j]) for j in result.universe) for a in result.abar}

    def potential(state):
        total = 0.0
        for pos, agent in enumerate(e1.agents):
            vbar = offset[agent] + e1.valuation_of(agent).value(state[agent])
            total += e1.weight_floats[pos] * math.log(vbar)
        return total

    for move in result.trace:
        before = potential(held)
        held[move.giver].discard(move.item)
        held[move.taker].add(move.item)
        assert potential(held) - before == pytest.approx(move.log_gain, abs=1e-12)
        assert move.log_gain > math.log1p(eb)
    assert {a: frozenset(b) for a, b in held.items()} == result.bundles


def test_swap_guard_raises_past_the_bound(e1, cold_start, monkeypatch):
    search_module = importlib.import_module("nswfair.search")
    monkeypatch.setattr(search_module, "swap_bound", lambda size, eps_bar: 0.5)
    with pytest.raises(InvariantViolation, match="swap count 1 exceeded"):
        local_search(e1, ["c", "d"], epsilon_bar(0.1, 4))


def test_verify_local_opt_flags_the_initial_allocation(e1):
    eb = epsilon_bar(0.1, 4)
    bad = {"1": {"c", "d"}, "2": set()}
    assert verify_local_opt(certificate_table(e1, bad), eb).violations == (("1", "2", "c"), ("1", "2", "d"))
    good = local_search(e1, ["c", "d"], eb).bundles
    assert verify_local_opt(certificate_table(e1, good), eb).violations == ()


def test_verify_rejects_malformed_bundles(e1):
    with pytest.raises(AllocationError):
        verify_local_opt(certificate_table(e1, {"1": {"c"}, "2": {"c"}}), 0.1)
    zeros = make_instance({"1": {"a": 1}, "2": {"a": 0}})
    with pytest.raises(AllocationError):
        verify_local_opt(certificate_table(zeros, {"2": {"a"}}), 0.1)


def test_price_reference_values(e1):
    bundles = {"1": {"d"}, "2": {"c"}}
    asym, sym = prices(certificate_table(e1, bundles))
    # Each bundle is a single unit item on top of a unit shift, so the
    # ratio vbar(R)/vbar(R - j) is exactly 2 for both items.
    assert asym.values["d"] == pytest.approx(0.34657359027997264, abs=1e-15)
    assert asym.values["c"] == pytest.approx(0.34657359027997264, abs=1e-15)
    assert sym.values == {"c": pytest.approx(1.0), "d": pytest.approx(1.0)}


def test_spending_reference_values(e1):
    bundles = {"1": {"d"}, "2": {"c"}}
    asym, sym = map(check_spending, prices(certificate_table(e1, bundles)))
    assert asym.per_agent["1"] == (pytest.approx(math.log(2) / 2), 0.5)
    assert asym.total_spent == pytest.approx(math.log(2))
    assert asym.total_cap == 1.0
    assert sym.per_agent["1"] == (pytest.approx(1.0), 1.0)
    assert sym.total_spent == pytest.approx(2.0)
    assert sym.total_cap == 2.0
    assert asym.within_caps() and sym.within_caps()


def test_spending_over_a_cap_is_reported_not_raised():
    # v(S) = |S|^2 is not submodular, so its prices break both caps. Tables
    # reject such a valuation; a hand-made one still reaches the solver,
    # which returns the report instead of raising.
    class Squares(Valuation):
        kind = "test_squares"
        items = frozenset(f"g{k}" for k in range(6))

        def value(self, bundle):
            return float(len(self._bundle(bundle)) ** 2)

    base = random_instance("additive", 2, 6, 0)
    inst = Instance(base.agents, base.weights, base.items, (Squares(), base.valuations[1]))
    sym = check_spending(prices(certificate_table(inst, {"a0": set(inst.items), "a1": set()}))[1])
    # vbar = 1 + v: each of the six items is priced 37 / 26 - 1
    assert sym.per_agent["a0"] == (pytest.approx(6 * (37 / 26 - 1)), 1.0)
    assert not sym.within_caps()
    certs = solve_nsw(inst, 0.1).certificates
    spent, cap = certs.spending_asymmetric.per_agent["a0"]
    assert spent > cap == 0.5
    assert not certs.spending_asymmetric.within_caps()
    assert not certs.spending_symmetric.within_caps()


def test_check_spending_calls_no_valuation(monkeypatch):
    inst = random_instance("coverage", 4, 24, 3)
    eb = epsilon_bar(0.1, inst.m)
    bundles = local_search(inst, inst.items, eb).bundles
    price_vectors = prices(certificate_table(inst, bundles))
    calls = []
    monkeypatch.setattr(Coverage, "value", lambda self, bundle: calls.append(bundle))
    reports = [check_spending(pv) for pv in price_vectors]
    assert calls == []
    assert all(r.within_caps() and set(r.per_agent) == set(pv.budgets) for r, pv in zip(reports, price_vectors))


def test_empty_universe_is_trivially_optimal(e1):
    result = local_search(e1, [], 0.05)
    assert result.abar == ()
    assert all(not b for b in result.bundles.values())
    assert result.trace == ()
    assert verify_local_opt(certificate_table(e1, result.bundles), 0.05).triples_checked == 0


def test_zero_value_agents_sit_out():
    inst = make_instance({"1": {"a": 0, "b": 0}, "2": {"a": 2, "b": 3}})
    result = local_search(inst, ["a", "b"], 0.1)
    assert result.abar == ("2",)
    assert result.bundles["1"] == frozenset()
    assert result.bundles["2"] == frozenset({"a", "b"})
    assert verify_local_opt(certificate_table(inst, result.bundles), 0.1).violations == ()


def test_the_result_names_every_agent_and_non_participants_hold_nothing():
    # Agents 1 and 3 value nothing in the universe, so the table builds no state for them.
    inst = make_instance(
        {
            "1": {"a": 0, "b": 0, "c": 0},
            "2": {"a": 2, "b": 3, "c": 1},
            "3": {"a": 0, "b": 0, "c": 5},
            "4": {"a": 1, "b": 1, "c": 1},
        }
    )
    result = local_search(inst, ["a", "b"], 0.1)
    assert result.abar == ("2", "4")
    assert list(result.bundles) == ["1", "2", "3", "4"]
    assert result.bundles["1"] == result.bundles["3"] == frozenset()
    assert result.bundles["2"] | result.bundles["4"] == {"a", "b"}


def test_the_universe_is_a_set_of_instance_items(e1, monkeypatch):
    with pytest.raises(UnknownItem, match="zz"):
        local_search(e1, ["c", "zz"], 0.1)
    search_module, sizes = importlib.import_module("nswfair.search"), []
    bound = search_module.swap_bound
    monkeypatch.setattr(search_module, "swap_bound", lambda size, eps_bar: sizes.append(size) or bound(size, eps_bar))
    repeated = local_search(e1, ["d", "c", "d", "c"], 0.1)
    assert sizes == [3]  # |J| + 1, J = {c, d}
    assert repeated.universe == ("c", "d")
    assert repeated == local_search(e1, ["c", "d"], 0.1)


def test_with_no_participant_nothing_is_dealt():
    # J is not empty, but no agent values an item of it: the search holds and moves nothing,
    # and a solve leaves those items to the leftover completion.
    inst = make_instance({"1": {"a": 2, "b": 0, "c": 0, "d": 0}, "2": {"a": 0, "b": 1, "c": 0, "d": 0}})
    assert _Gains(inst, ["c", "d"]).states == {}
    result = local_search(inst, ["c", "d"], 0.1)
    assert (result.abar, result.trace) == ((), ())
    assert result.bundles == {"1": frozenset(), "2": frozenset()}
    report = solve_nsw(inst, 0.1)
    assert report.search.abar == ()
    assert sorted(j for a in inst.agents for j in report.allocation.bundle(a)) == list(inst.items)


def test_an_item_all_takers_tie_on_goes_to_the_smallest_index(e1):
    # e1: c is worth 1 to both agents, whose bundles are empty, so agent 1 takes it; d is then
    # worth more to agent 2, and the deal is already locally optimal.
    assert {a: state.bundle for a, state in _Gains(e1, ["c", "d"]).states.items()} == {"1": {"c"}, "2": {"d"}}
    result = local_search(e1, ["c", "d"], epsilon_bar(0.1, 4))
    assert result.bundles == {"1": frozenset({"c"}), "2": frozenset({"d"})}
    assert result.trace == ()
    # Three equal agents: every item ties among the agents holding the fewest, so the deal
    # goes round in index order.
    items = [f"g{k}" for k in range(7)]
    inst = make_instance({a: dict.fromkeys(items, 1) for a in "123"})
    dealt = {a: state.bundle for a, state in _Gains(inst, items).states.items()}
    assert dealt == {"1": {"g0", "g3", "g6"}, "2": {"g1", "g4"}, "3": {"g2", "g5"}}


@pytest.mark.parametrize("weight_mode", WEIGHT_MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_the_deal_partitions_the_universe_among_participants(family, weight_mode):
    inst = random_instance(family, 8, 40, 5, weight_mode=weight_mode)
    for universe in (inst.items, inst.items[30:], inst.items[::7]):
        table = _Gains(inst, universe)
        bundles = [state.bundle for state in table.states.values()]
        assert set(table.states) == set(table.abar)
        assert sorted(j for bundle in bundles for j in bundle) == sorted(universe)


@pytest.mark.parametrize("weight_mode", WEIGHT_MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_a_table_built_from_an_allocation_matches_one_moved_there(family, weight_mode, cold_start):
    # The search's swaps replayed through move() on the cold start, with a full scan before
    # each so memo entries outlive moves, reach the same rows and gains, hex for hex, as a
    # table built from the bundles they end at.
    inst = random_instance(family, 6, 30, 3, weight_mode=weight_mode)
    result = local_search(inst, inst.items, epsilon_bar(0.1, inst.m))
    assert len(result.trace) > 0
    moved = _Gains(inst, inst.items)
    for swap in result.trace:
        list(scan(moved))
        moved.move(swap.giver, swap.item, swap.taker)
    built = _Gains(inst, inst.items, result.bundles)

    def seen(table):
        rows = {a: table.row(a) for a in table.abar}
        return rows, [(g, j, t, gain.hex()) for g, j, t, gain in scan(table)]

    assert seen(built) == seen(moved)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_random_instances_reach_certified_optima(family, seed):
    inst = random_instance(family, n=3, m=6, seed=seed)
    eb = epsilon_bar(0.1, len(inst.items))
    result = local_search(inst, inst.items, eb)
    # output partitions the universe over participating agents only
    assigned = [j for b in result.bundles.values() for j in b]
    if result.abar:
        assert sorted(assigned) == sorted(inst.items)
    else:
        assert assigned == []
    holders = {a for a, b in result.bundles.items() if b}
    assert holders <= set(result.abar)
    assert verify_local_opt(certificate_table(inst, result.bundles), eb).violations == ()
    assert len(result.trace) <= math.log(len(inst.items) + 1) / math.log1p(eb) + 1
    for price_vector in prices(certificate_table(inst, result.bundles)):
        assert check_spending(price_vector).within_caps()


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_search_is_deterministic(seed):
    inst = random_instance("coverage", n=3, m=6, seed=seed, weight_mode="random_rational")
    eb = epsilon_bar(0.25, len(inst.items))
    first = local_search(inst, inst.items, eb)
    second = local_search(inst, inst.items, eb)
    assert first.bundles == second.bundles
    assert first.trace == second.trace


def test_asymmetric_weights_respect_caps():
    inst = make_instance(
        {"1": {"a": 5, "b": 1, "c": 1}, "2": {"a": 1, "b": 4, "c": 2}},
        weights=[(1, 4), (3, 4)],
    )
    eb = epsilon_bar(0.1, 3)
    result = local_search(inst, inst.items, eb)
    report = check_spending(prices(certificate_table(inst, result.bundles))[0])
    assert report.within_caps()
    assert all(spent <= cap + 1e-9 for spent, cap in report.per_agent.values())
    assert report.per_agent["1"][1] == 0.25
    assert report.per_agent["2"][1] == 0.75
    assert report.total_spent <= 1.0 + 1e-9


def test_memoised_gains_match_direct_recomputation_mid_search(cold_start):
    inst = random_instance("coverage", n=5, m=30, seed=4, weight_mode="random_rational")
    threshold = math.log1p(epsilon_bar(0.1, inst.m))
    table = _Gains(inst, inst.items)
    bundles = {a: set() for a in table.abar}
    bundles[table.abar[0]] = set(table.universe)  # the cold start
    for _ in range(6):
        # A full scan fills every memo entry before the move invalidates some.
        scanned = list(scan(table))
        giver, item, taker = next((g, j, t) for g, j, t, gain in scanned if gain > threshold)
        table.move(giver, item, taker)
        bundles[giver].remove(item)
        bundles[taker].add(item)
    assert {a: state.bundle for a, state in table.states.items()} == bundles

    def log_vbar(agent, bundle):
        return math.log(table.offset[agent] + inst.valuation_of(agent).value(bundle))

    w = {a: inst.weight_floats[inst.agent_index[a]] for a in table.abar}
    scanned = list(scan(table))
    assert len(scanned) == sum(len(b) for b in bundles.values()) * (len(table.abar) - 1)
    for giver, item, taker, gain in scanned:
        r_g, r_t = bundles[giver], bundles[taker]
        direct = w[giver] * (log_vbar(giver, r_g - {item}) - log_vbar(giver, r_g)) + w[taker] * (
            log_vbar(taker, r_t | {item}) - log_vbar(taker, r_t)
        )
        assert gain == direct, (giver, item, taker)


def test_search_oracle_calls_per_swap_stay_memoised(monkeypatch):
    # Re-evaluating whole bundles for every triple costs about 600 value()
    # calls per swap on this instance. The coverage bundle states answer every
    # gain and every term of the greedy deal, and who takes part and each
    # shift come from phase 1's singleton table, so the search calls
    # value() not at all, from either start.
    import nswfair.pipeline as pipeline
    from nswfair import solve_nsw
    from nswfair.valuations import Coverage

    count = {"on": False, "calls": 0}
    base_value = Coverage.value

    def counted_value(self, bundle):
        count["calls"] += count["on"]
        return base_value(self, bundle)

    def counted_search(*args):
        count["on"] = True
        try:
            return local_search(*args)
        finally:
            count["on"] = False

    monkeypatch.setattr(Coverage, "value", counted_value)
    monkeypatch.setattr(pipeline, "local_search", counted_search)
    for start in STARTS:
        with search_start(start):
            report = solve_nsw(random_instance("coverage", 12, 120, 11), 0.1)
        n_abar, size = len(report.search.abar), len(report.search.universe)
        assert report.swaps > (100 if start == "cold" else 0)
        assert n_abar == 12
        assert size == 108
        assert count["calls"] == 0


def test_one_price_table_per_solve(monkeypatch):
    # One certificate table serves the recheck and both price vectors, and its states
    # are the family's own, so no stage calls value(). The recheck reads vbar(R) per
    # agent, vbar(R - j) per held item and vbar(R + j) per other taker of each item;
    # building the table builds its states from the bundles, which adds items and reads
    # nothing. Prices then read vbar(R) and vbar(R - j) from the recheck's memo, with
    # no state read.
    import nswfair.pipeline as pipeline

    stage, calls, reads, entered = [None], Counter(), Counter(), []

    def counted(count, fn):
        def run(self, *args):
            count[stage[0]] += 1
            return fn(self, *args)

        return run

    def staged(name):
        fn = getattr(pipeline, name)

        def run(*args):
            stage[0] = name
            entered.append(name)
            try:
                return fn(*args)
            finally:
                stage[0] = None

        return run

    monkeypatch.setattr(Coverage, "value", counted(calls, Coverage.value))
    for read in ("value", "plus", "minus"):
        monkeypatch.setattr(_CountState, read, counted(reads, getattr(_CountState, read)))
    for name in ("certificate_table", "verify_local_opt", "prices"):
        monkeypatch.setattr(pipeline, name, staged(name))
    inst = random_instance("coverage", 12, 120, 11)
    search = solve_nsw(inst, 0.1).search
    n_abar, size = len(search.abar), len(search.universe)
    assert (n_abar, size) == (12, 108)
    assert entered == ["certificate_table", "verify_local_opt", "prices"]
    assert calls["certificate_table"] == calls["verify_local_opt"] == calls["prices"] == 0
    assert reads["certificate_table"] == 0
    assert reads["verify_local_opt"] == n_abar * (1 + size) == 1308
    assert reads["prices"] == 0


@pytest.mark.parametrize(
    "family,seed,weight_mode,search_plus",
    [("partition_matroid_rank", 1, "random_rational", 831), ("budget_additive", 2, "symmetric", 347)],
)
def test_a_saturated_taker_reads_no_state(monkeypatch, family, seed, weight_mode, search_plus):
    # A taker whose bundle is worth v(all items) gains exactly 0.0 from any item, as
    # v(R) <= v(R + j) <= v(all items) for a monotone v, so no triple of it is scored and
    # no plus read is made for it. On these 20x200 solves every participant is saturated at
    # the local optimum, so the recheck reads no plus at all (3,420 reads without the rule),
    # and the search reads 831 and 347 (4,370 and 3,944 without it).
    import nswfair.pipeline as pipeline

    state = {"partition_matroid_rank": _CountState, "budget_additive": _SumState}[family]
    stage, reads, tables = [None], Counter(), []
    plus, build = state.plus, _Gains.__init__

    def counted_plus(self, item):
        reads[stage[0]] += 1
        return plus(self, item)

    def recorded(self, *args):
        build(self, *args)
        tables.append(self)

    def staged(name):
        fn = getattr(pipeline, name)

        def run(*args):
            stage[0] = name
            try:
                return fn(*args)
            finally:
                stage[0] = None

        return run

    monkeypatch.setattr(state, "plus", counted_plus)
    monkeypatch.setattr(_Gains, "__init__", recorded)
    for name in ("local_search", "verify_local_opt"):
        monkeypatch.setattr(pipeline, name, staged(name))
    inst = random_instance(family, 20, 200, seed, weight_mode=weight_mode)
    report = solve_nsw(inst, 0.1)
    assert report.feasible and not report.certificates.local_opt_violations
    assert (reads["local_search"], reads["verify_local_opt"]) == (search_plus, 0)
    _, recheck_table = tables
    for table in tables:
        assert len(table.abar) == 20
        for agent in table.abar:
            v, bundle = inst.valuation_of(agent), table.states[agent].bundle
            assert table.current(agent)[2] and v.value(bundle) == v.value(inst.items), agent
            log_now = math.log(table.offset[agent] + v.value(bundle))
            for item, term in table._take[agent].items():
                direct = table.weight[agent] * (math.log(table.offset[agent] + v.value(bundle | {item})) - log_now)
                assert term == direct == 0.0, (agent, item)
    # Every taker of the recheck is saturated, so it scores no triple, and still counts them all.
    assert not any(recheck_table._take.values())
    held = sum(len(state.bundle) for state in recheck_table.states.values())
    assert report.search.certificate.triples_checked == held * 19


def test_a_feasible_solve_scans_its_triples_once(monkeypatch):
    # The recheck is a solve's one full scan: the search ends on a frontier walk, and an
    # infeasible solve (fewer items than agents, or no positive phase-1 matching) runs neither.
    import nswfair.pipeline as pipeline

    scans = []
    recheck = pipeline.verify_local_opt
    monkeypatch.setattr(
        pipeline, "verify_local_opt", lambda table, eps_bar: scans.append(table) or recheck(table, eps_bar)
    )
    for family in FAMILIES:
        scans.clear()
        assert solve_nsw(random_instance(family, 12, 120, 11), 0.1).feasible
        assert len(scans) == 1, family
    scans.clear()
    for inst in (make_instance({"1": {"a": 1, "b": 1}, "2": {"a": 0, "b": 0}}), random_instance("additive", 4, 3, 7)):
        assert not solve_nsw(inst, 0.1).feasible
    assert scans == []


def certificate_stage(inst, bundles, eps_bar):
    """Violations, both price vectors and both spending reports of ``bundles``, floats as hex."""
    table = certificate_table(inst, bundles)
    violations = verify_local_opt(table, eps_bar)
    price_vectors = prices(table)
    stage = hexed((violations, price_vectors, tuple(map(check_spending, price_vectors))))
    return stage, {type(state) for state in table.states.values()}


def hexed(x):
    """``x`` with every float as its hex string and every dict as its list of items, in order."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return [(k, hexed(y)) for k, y in x.items()]
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, (tuple, list)):
        return [hexed(y) for y in x]
    return hexed(vars(x)) if hasattr(x, "__dataclass_fields__") else x


def table_instance(seed, mode):
    base = random_instance("coverage", 3, 8, seed, mode)
    subsets = [[j for i, j in enumerate(base.items) if mask >> i & 1] for mask in range(1 << base.m)]
    tables = tuple(ExplicitTable(base.items, [0.1 * v.value(s) for s in subsets]) for v in base.valuations)
    return Instance(base.agents, base.weights, base.items, tables)


@pytest.mark.parametrize("mode", WEIGHT_MODES)
@pytest.mark.parametrize("family", FAMILIES + ("explicit_table",))
def test_certificate_stage_matches_a_value_backed_reference(family, mode, monkeypatch):
    # The certificate stage reads each family's bundle state; a stage whose states call
    # value() on sets gives the same violations, prices and spending, float for float,
    # on search optima and on hand-made bundles that are not locally optimal.
    for n, m, seed in [(3, 9, 0), (6, 30, 2), (12, 120, 11)]:
        if family == "explicit_table":
            inst = table_instance(seed, mode)
        else:
            inst = random_instance(family, n, m, seed, mode)
        eps_bar = epsilon_bar(0.1, inst.m)
        search = local_search(inst, inst.items, eps_bar)
        abar = search.abar
        all_to_one = {abar[0]: inst.items}
        dealt = {a: inst.items[i :: len(abar)] for i, a in enumerate(abar)}
        for bundles in (search.bundles, all_to_one, dealt):
            stage, kinds = certificate_stage(inst, bundles, eps_bar)
            with monkeypatch.context() as patch:
                for cls in VALUATION_KINDS.values():
                    patch.setattr(cls, "bundle_state", Valuation.bundle_state)
                fresh = Instance(inst.agents, inst.weights, inst.items, inst.valuations)
                reference, reference_kinds = certificate_stage(fresh, bundles, eps_bar)
            assert reference_kinds == {BundleState}
            assert kinds == {type(v.bundle_state(())) for v in inst.valuations}
            assert stage == reference, (n, m, seed)
            if bundles is all_to_one and len(abar) > 1:
                assert dict(stage[0])["violations"], "a non-optimal allocation must show violations"


@pytest.mark.parametrize("eps_bar", [math.nan, -0.5])
def test_eps_bar_must_be_a_nonnegative_number(eps_bar):
    # With a nan threshold every comparison is false, which would certify anything.
    inst = random_instance("additive", 3, 9, 0)
    with pytest.raises(ValueError, match="eps_bar"):
        local_search(inst, inst.items, eps_bar)
    with pytest.raises(ValueError, match="eps_bar"):
        verify_local_opt(certificate_table(inst, {"a0": set(inst.items)}), eps_bar)


@pytest.mark.parametrize("eps_bar", [0.0, 5e-324, 1e-310])
def test_no_search_runs_without_a_finite_swap_bound(eps_bar):
    # 0 is not positive; 5e-324 and 1e-310 pass the positivity check, but the swap bound
    # log(|J| + 1) / log(1 + eps_bar) + 1 overflows to inf on 9 items.
    inst = random_instance("additive", 3, 9, 0)
    assert eps_bar == 0.0 or swap_bound(len(inst.items) + 1, eps_bar) == math.inf
    with pytest.raises(ValueError, match="eps_bar"):
        local_search(inst, inst.items, eps_bar)


def test_the_recheck_refuses_a_zero_eps_bar():
    # The recheck makes no swap, so it needs no swap bound: only positivity binds it.
    inst = random_instance("additive", 3, 9, 0)
    table = certificate_table(inst, {"a0": set(inst.items)})
    with pytest.raises(ValueError, match="eps_bar"):
        verify_local_opt(table, 0.0)
    assert verify_local_opt(table, 5e-324).violations


def assert_search_matches_full_restart(inst, eps=0.1, start="greedy"):
    eb = epsilon_bar(eps, max(inst.m, 1))
    with search_start(start):
        result = local_search(inst, inst.items, eb)
    trace, bundles, (triples, max_gain) = full_restart_search(inst, inst.items, eb, start)
    assert result.trace == trace
    assert result.bundles == bundles
    cert = verify_local_opt(certificate_table(inst, result.bundles), eb)
    assert (cert.triples_checked, cert.max_log_gain) == (triples, max_gain)


@pytest.mark.parametrize("n,m", [(2, 5), (5, 30), (12, 120)])
@pytest.mark.parametrize("weight_mode", WEIGHT_MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_search_matches_a_full_restart_search(family, weight_mode, n, m):
    for start in STARTS:
        assert_search_matches_full_restart(random_instance(family, n, m, n + m, weight_mode=weight_mode), start=start)


class _CountedGains(_Gains):
    """A gain table that counts the triples the frontier scores: each lookup in a taker's
    memo, less those made by :meth:`take` itself (memo misses, full scans and the deal)."""

    scored = 0

    class Row(dict):
        def get(self, key, default=None):
            _CountedGains.scored += 1
            return dict.get(self, key, default)

    @property
    def _take(self):
        return self._counted_rows

    @_take.setter
    def _take(self, rows):  # the memo is made of counting rows before the start is dealt
        self._counted_rows = {a: self.Row(row) for a, row in rows.items()}

    def take(self, taker, item):
        _CountedGains.scored -= 1
        return super().take(taker, item)


# (triples scored, swaps) of each case below from the greedy start.
GREEDY_FRONTIER = {"coverage": (13_154, 27), "additive": (2_771, 7), "partition_matroid_rank": (0, 0)}


@pytest.mark.parametrize(
    "family,n,m,seed,weight_mode,scored,swaps",
    [
        ("coverage", 20, 200, 1, "symmetric", 78_564, 670),
        ("additive", 12, 120, 11, "random_rational", 27_733, 356),
        ("partition_matroid_rank", 20, 200, 1, "symmetric", 87, 56),
    ],
)
def test_frontier_scores_a_fixed_set_of_triples(monkeypatch, family, n, m, seed, weight_mode, scored, swaps):
    # The frontier scores only the triples that can have changed since their position was
    # last verified; these counts pin that set, which an equal swap trace alone does not.
    # The cold start, with its many swaps, exercises the frontier most.
    monkeypatch.setattr(importlib.import_module("nswfair.search"), "_Gains", _CountedGains)
    inst = random_instance(family, n, m, seed, weight_mode=weight_mode)
    for start, counts in [("cold", (scored, swaps)), ("greedy", GREEDY_FRONTIER[family])]:
        monkeypatch.setattr(_CountedGains, "scored", 0)
        with search_start(start):
            result = local_search(inst, inst.items, epsilon_bar(0.1, inst.m))
        assert (_CountedGains.scored, len(result.trace)) == counts, start


def test_frontier_scores_a_fixed_set_of_triples_in_a_solve(monkeypatch):
    # The 12x120 coverage search of README's "Search cost" section, on the universe phase 1 leaves.
    monkeypatch.setattr(importlib.import_module("nswfair.search"), "_Gains", _CountedGains)
    for start, counts in [("cold", (21_389, 328)), ("greedy", (2_879, 13))]:
        monkeypatch.setattr(_CountedGains, "scored", 0)
        with search_start(start):
            report = solve_nsw(random_instance("coverage", 12, 120, 11), 0.1)
        assert (_CountedGains.scored, report.swaps) == counts, start


class SquareRootOfSum(Valuation):
    """sqrt of an additive valuation: submodular, with no bundle state of its own."""

    kind = "test_sqrt"

    def __init__(self, base):
        self.base = base

    @property
    def items(self):
        return self.base.items

    def value(self, bundle):
        return math.sqrt(self.base.value(bundle))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tables_and_stateless_valuations_match_a_full_restart_search(seed):
    # Tables of coverage valuations scaled by 0.1, so their entries are not integers.
    base = random_instance("coverage", 3, 8, seed, weight_mode="random_rational")
    masks = range(1 << base.m)
    subsets = [[j for i, j in enumerate(base.items) if mask >> i & 1] for mask in masks]
    tables = tuple(
        ExplicitTable(base.items, [0.1 * v.value(s) for s in subsets]) for v in base.valuations
    )
    tabled = Instance(base.agents, base.weights, base.items, tables)
    base = random_instance("additive", 4, 20, seed, weight_mode="random_rational")
    rooted = Instance(base.agents, base.weights, base.items, tuple(SquareRootOfSum(v) for v in base.valuations))
    for start in STARTS:
        for inst in (tabled, rooted):
            assert_search_matches_full_restart(inst, start=start)


TIE_VALUES = st.sampled_from([0, 1, 2, 4])


@st.composite
def tie_heavy_instances(draw):
    """Up to 5 agents and 12 items (fewer items than agents allowed), each agent additive,
    coverage or a table of a coverage, all values from {0, 1, 2, 4}: many equal gains and
    agents worth zero."""
    n, m = draw(st.integers(1, 5), label="n"), draw(st.integers(0, 12), label="m")
    items = tuple(f"g{j}" for j in range(m))
    subsets = [[j for i, j in enumerate(items) if mask >> i & 1] for mask in range(1 << m)]
    ground = ["u0", "u1", "u2", "u3"]
    valuations = []
    for _ in range(n):
        family = draw(st.sampled_from(["additive", "coverage", "table"]))
        if family == "additive":
            valuations.append(Additive({j: draw(TIE_VALUES) for j in items}))
            continue
        covers = {j: draw(st.lists(st.sampled_from(ground), unique=True, max_size=2)) for j in items}
        v = Coverage(covers, {e: draw(TIE_VALUES) for e in ground})
        valuations.append(v if family == "coverage" else ExplicitTable(items, [v.value(s) for s in subsets]))
    if draw(st.sampled_from(["symmetric", "random_rational"])) == "symmetric":
        weights = [Fraction(1, n)] * n
    else:
        parts = [draw(st.integers(1, 10)) for _ in range(n)]
        weights = [Fraction(p, sum(parts)) for p in parts]
    agents = tuple(f"a{i}" for i in range(n))
    return Instance(agents, tuple(weights), items, tuple(valuations))


@settings(max_examples=150, deadline=None)
@given(
    inst=tie_heavy_instances(),
    eps=st.sampled_from([1e-9, 0.01, 0.1, 1.0]),
    start=st.sampled_from(STARTS),
    data=st.data(),
)
def test_tie_heavy_searches_match_a_full_restart_search(inst, eps, start, data):
    assert_search_matches_full_restart(inst, eps, start)
    # On any allocation of the items among the participants, the recheck finds a violation
    # exactly when its largest gain beats the threshold.
    abar = _Gains(inst, inst.items).abar
    holders = [data.draw(st.sampled_from(abar), label=j) for j in inst.items] if abar else []
    bundles = {a: {j for j, holder in zip(inst.items, holders) if holder == a} for a in abar}
    cert = verify_local_opt(certificate_table(inst, bundles), epsilon_bar(eps, max(inst.m, 1)))
    assert bool(cert.violations) == (cert.max_log_gain > cert.threshold)


@st.composite
def saturating_instances(draw):
    """Up to 5 agents and 12 items, each agent budget-additive or a partition-matroid rank,
    all values, caps and scales from {0, 1, 2, 4} and capacities from {0, 1, 2}: bundles
    often reach v(all items), so many takers are saturated, and many gains tie."""
    n, m = draw(st.integers(1, 5), label="n"), draw(st.integers(0, 12), label="m")
    items = tuple(f"g{j}" for j in range(m))
    labels = ["c0", "c1", "c2"]
    valuations = []
    for _ in range(n):
        if draw(st.sampled_from(["budget_additive", "partition_matroid_rank"])) == "budget_additive":
            valuations.append(BudgetAdditive({j: draw(TIE_VALUES) for j in items}, draw(TIE_VALUES)))
        else:
            classes = {j: draw(st.sampled_from(labels)) for j in items}
            capacities = {c: draw(st.integers(0, 2)) for c in labels}
            valuations.append(PartitionMatroidRank(classes, capacities, draw(TIE_VALUES)))
    if draw(st.sampled_from(["symmetric", "random_rational"])) == "symmetric":
        weights = [Fraction(1, n)] * n
    else:
        parts = [draw(st.integers(1, 10)) for _ in range(n)]
        weights = [Fraction(p, sum(parts)) for p in parts]
    agents = tuple(f"a{i}" for i in range(n))
    return Instance(agents, tuple(weights), items, tuple(valuations))


@settings(max_examples=150, deadline=None)
@given(inst=saturating_instances(), eps=st.sampled_from([1e-9, 0.01, 0.1, 1.0]))
def test_saturating_searches_match_a_full_restart_search(inst, eps):
    # The full restart scores a saturated taker's terms from value() calls, not by the
    # table's rule that they are 0.0, so equal traces and certificates check that rule.
    for start in STARTS:
        assert_search_matches_full_restart(inst, eps, start)


@settings(max_examples=150, deadline=None)
@given(inst=saturating_instances(), eps=st.sampled_from([1e-9, 0.01, 0.1, 1.0]), data=st.data())
def test_saturating_rechecks_match_a_full_scan(inst, eps, data):
    # On any allocation of the items among the participants, local optimum or not, the
    # recheck, which scores no saturated taker, keeps the record of a scan of every triple.
    abar = _Gains(inst, inst.items).abar
    holders = [data.draw(st.sampled_from(abar), label=j) for j in inst.items] if abar else []
    bundles = {a: {j for j, holder in zip(inst.items, holders) if holder == a} for a in abar}
    eps_bar = epsilon_bar(eps, max(inst.m, 1))
    cert = verify_local_opt(certificate_table(inst, bundles), eps_bar)
    violations, checked, best = full_scan(inst, bundles, eps_bar)
    assert (cert.violations, cert.triples_checked, cert.max_log_gain.hex()) == (violations, checked, best.hex())
