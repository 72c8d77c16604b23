"""Swap search: frozen trace values, certificates, prices, spending caps."""

import math

import pytest

from nswfair import (
    AllocationError,
    check_spending,
    epsilon_bar,
    local_search,
    prices,
    verify_local_opt,
)
from nswfair.generate import FAMILIES, random_instance
from nswfair.local_search import _Context, _Gains

from conftest import make_instance


def test_epsilon_bar_reference_values():
    assert epsilon_bar(0.1, 1) == pytest.approx(0.1, abs=1e-15)
    assert epsilon_bar(3.0, 2) == pytest.approx(1.0, abs=1e-15)
    assert epsilon_bar(0.1, 4) == pytest.approx(0.024113689084445132, abs=1e-15)


@pytest.mark.parametrize("eps,m", [(0.1, 1), (0.1, 4), (3.0, 2), (0.5, 7), (2.0, 13)])
def test_epsilon_bar_compounds_back(eps, m):
    assert (1.0 + epsilon_bar(eps, m)) ** m == pytest.approx(1.0 + eps, rel=1e-12)


def test_epsilon_bar_rejects_bad_arguments():
    with pytest.raises(ValueError):
        epsilon_bar(0.0, 3)
    with pytest.raises(ValueError):
        epsilon_bar(0.1, 0)


def test_two_agent_leftover_search(e1):
    # Leftovers {c, d} after the matching phase; both agents value each at 1.
    eb = epsilon_bar(0.1, 4)
    result = local_search(e1, ["c", "d"], eb)
    assert result.abar == ("1", "2")
    assert result.favorites == {"1": "c", "2": "c"}
    assert result.bundles["1"] == frozenset({"d"})
    assert result.bundles["2"] == frozenset({"c"})
    assert result.swaps == 1
    move = result.trace[0]
    assert (move.giver, move.item, move.taker) == ("1", "c", "2")
    assert move.log_gain == pytest.approx(0.5 * math.log(4.0 / 3.0), rel=1e-12)
    cert = result.certificate
    assert cert.threshold == pytest.approx(math.log1p(eb), rel=1e-15)
    assert cert.max_log_gain <= cert.threshold
    assert cert.triples_checked == 2


def test_trace_gains_replay_as_potential_deltas(e1):
    eb = epsilon_bar(0.1, 4)
    result = local_search(e1, ["c", "d"], eb)
    held = {a: set() for a in e1.agents}
    held["1"] = {"c", "d"}
    fav_offset = {a: e1.valuation_of(a).value([result.favorites[a]]) for a in result.abar}

    def potential(state):
        total = 0.0
        for pos, agent in enumerate(e1.agents):
            vbar = fav_offset[agent] + e1.valuation_of(agent).value(state[agent])
            total += e1.weight_floats[pos] * math.log(vbar)
        return total

    for move in result.trace:
        before = potential(held)
        held[move.giver].discard(move.item)
        held[move.taker].add(move.item)
        assert potential(held) - before == pytest.approx(move.log_gain, abs=1e-12)
        assert move.log_gain > math.log1p(eb)
    assert {a: frozenset(b) for a, b in held.items()} == result.bundles


def test_verify_local_opt_flags_the_initial_allocation(e1):
    eb = epsilon_bar(0.1, 4)
    bad = {"1": {"c", "d"}, "2": set()}
    assert verify_local_opt(e1, bad, eb) == [("1", "2", "c"), ("1", "2", "d")]
    good = local_search(e1, ["c", "d"], eb).bundles
    assert verify_local_opt(e1, good, eb) == []


def test_verify_rejects_malformed_bundles(e1):
    with pytest.raises(AllocationError):
        verify_local_opt(e1, {"1": {"c"}, "2": {"c"}}, 0.1)
    zeros = make_instance({"1": {"a": 1}, "2": {"a": 0}})
    with pytest.raises(AllocationError):
        verify_local_opt(zeros, {"2": {"a"}}, 0.1)


def test_price_reference_values(e1):
    bundles = {"1": {"d"}, "2": {"c"}}
    asym = prices(e1, bundles, "asymmetric")
    # Each bundle is a single unit item on top of a unit favorite, so the
    # ratio vbar(R)/vbar(R - j) is exactly 2 for both items.
    assert asym.values["d"] == pytest.approx(0.34657359027997264, abs=1e-15)
    assert asym.values["c"] == pytest.approx(0.34657359027997264, abs=1e-15)
    sym = prices(e1, bundles, "symmetric")
    assert sym.values == {"c": pytest.approx(1.0), "d": pytest.approx(1.0)}
    with pytest.raises(ValueError):
        prices(e1, bundles, "weird")


def test_spending_reference_values(e1):
    bundles = {"1": {"d"}, "2": {"c"}}
    asym = check_spending(e1, prices(e1, bundles, "asymmetric"), bundles)
    assert asym.per_agent["1"] == (pytest.approx(math.log(2) / 2), 0.5)
    assert asym.total_spent == pytest.approx(math.log(2))
    assert asym.total_cap == 1.0
    sym = check_spending(e1, prices(e1, bundles, "symmetric"), bundles)
    assert sym.per_agent["1"] == (pytest.approx(1.0), 1.0)
    assert sym.total_spent == pytest.approx(2.0)
    assert sym.total_cap == 2.0


def test_empty_universe_is_trivially_optimal(e1):
    result = local_search(e1, [], 0.05)
    assert result.abar == ()
    assert all(not b for b in result.bundles.values())
    assert result.swaps == 0
    assert result.certificate.triples_checked == 0


def test_zero_value_agents_sit_out():
    inst = make_instance({"1": {"a": 0, "b": 0}, "2": {"a": 2, "b": 3}})
    result = local_search(inst, ["a", "b"], 0.1)
    assert result.abar == ("2",)
    assert result.bundles["1"] == frozenset()
    assert result.bundles["2"] == frozenset({"a", "b"})
    assert verify_local_opt(inst, result.bundles, 0.1) == []


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
    assert verify_local_opt(inst, result.bundles, eb) == []
    assert result.swaps <= math.log(len(inst.items) + 1) / math.log1p(eb) + 1
    for variant in ("asymmetric", "symmetric"):
        check_spending(inst, prices(inst, result.bundles, variant), result.bundles)


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
    report = check_spending(inst, prices(inst, result.bundles, "asymmetric"), result.bundles)
    assert report.per_agent["1"][1] == 0.25
    assert report.per_agent["2"][1] == 0.75
    assert report.total_spent <= 1.0 + 1e-9


def test_memoised_gains_match_direct_recomputation_mid_search():
    inst = random_instance("coverage", n=5, m=30, seed=4, weight_mode="random_rational")
    threshold = math.log1p(epsilon_bar(0.1, inst.m))
    ctx = _Context(inst, inst.items)
    bundles = {a: set() for a in inst.agents}
    bundles[ctx.abar[0]] = set(ctx.universe)
    table = _Gains(ctx, bundles)
    for _ in range(6):
        # A full scan fills every memo entry before the move invalidates some.
        scanned = list(table.scan())
        table.move(*next((g, j, t) for g, j, t, gain in scanned if gain > threshold))

    def log_vbar(agent, bundle):
        return math.log(ctx.endowed[agent].value(bundle))

    w = {a: inst.weight_floats[inst.agent_index[a]] for a in ctx.abar}
    scanned = list(table.scan())
    assert len(scanned) == sum(len(b) for b in bundles.values()) * (len(ctx.abar) - 1)
    for giver, item, taker, gain in scanned:
        r_g, r_t = bundles[giver], bundles[taker]
        direct = w[giver] * (log_vbar(giver, r_g - {item}) - log_vbar(giver, r_g)) + w[taker] * (
            log_vbar(taker, r_t | {item}) - log_vbar(taker, r_t)
        )
        assert gain == direct, (giver, item, taker)


def test_search_oracle_calls_per_swap_stay_memoised(monkeypatch):
    # Re-evaluating whole bundles for every triple costs about 600 value()
    # calls per swap on this instance; the gain table needs about 45.
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
    report = solve_nsw(random_instance("coverage", 12, 120, 11), 0.1)
    assert report.swaps > 100
    assert count["calls"] <= 100 * report.swaps
