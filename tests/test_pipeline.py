"""Three-phase solver: frozen run, degenerate inputs, factors, dominance."""

import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nswfair import (
    Additive,
    Allocation,
    Coverage,
    Instance,
    brute_force_opt,
    certificate_table,
    check_spending,
    guarantee_factor,
    local_search,
    nsw_log,
    phi,
    prices,
    solve_nsw,
    validate,
    verify_local_opt,
)
import nswfair.pipeline as pipeline_mod
from nswfair import oracle
from nswfair.cli import _checks, _made_fair, _Run
from nswfair.generate import FAMILIES, WEIGHT_MODES, random_instance
from nswfair.instance import welfare_term, welfare_terms
from nswfair.search import epsilon_bar, swap_bound
from nswfair.valuations import ExplicitTable, subset_values

from conftest import make_instance, numpy_from
from test_golden import CASES, case_id


def test_reference_solve(e1, cold_start):
    # From the cold start; test_local_search checks the greedy deal of e1's leftovers.
    report = solve_nsw(e1, eps=0.1)
    assert report.feasible
    assert report.tau == {"1": "a", "2": "b"}
    assert report.search.universe == ("c", "d")
    assert report.search.bundles == {"1": frozenset({"d"}), "2": frozenset({"c"})}
    assert report.sigma == {"1": "a", "2": "b"}
    assert report.swaps == 1
    assert report.eps_bar == pytest.approx(0.024113689084445132, abs=1e-15)
    assert report.allocation.bundle("1") == frozenset({"a", "d"})
    assert report.allocation.bundle("2") == frozenset({"b", "c"})
    assert report.log_nsw == pytest.approx(0.5 * math.log(20), rel=1e-12)
    assert report.certificates.local_opt_violations == ()
    # this small instance is solved to optimality
    assert report.log_nsw == pytest.approx(brute_force_opt(e1).opt_log, rel=1e-12)


def test_eps_must_be_positive(e1):
    with pytest.raises(ValueError):
        solve_nsw(e1, eps=0.0)
    with pytest.raises(ValueError):
        solve_nsw(e1, eps=-0.5)
    with pytest.raises(ValueError):
        solve_nsw(e1, eps=float("nan"))


def test_swap_limit_is_the_swap_bound_of_m_items():
    for family in FAMILIES:
        inst = random_instance(family, n=3, m=9, seed=5)
        report = solve_nsw(inst, eps=0.1)
        assert report.certificates.swap_limit == swap_bound(inst.m, report.eps_bar)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 10**4).flatmap(lambda m: st.tuples(st.integers(1, m), st.just(m))),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
@example((1, 1), 5e-324)
@example((1, 10**4), 1e-300)
@example((10**4, 10**4), sys.float_info.max)
def test_the_solve_never_meets_the_searchs_bound_refusal(sizes, eps):
    # A solve reaches the search only with 1 <= n <= m, after phase 1 took n items, so the
    # search's universe J has |J| + 1 = m - n + 1; every eps that epsilon_bar accepts keeps that
    # bound finite and within the report's swap_limit = swap_bound(m, eps_bar).
    n, m = sizes
    try:
        eps_bar = epsilon_bar(eps, m)
    except ValueError:
        assume(False)
    bound = swap_bound(m - n + 1, eps_bar)
    assert math.isfinite(bound) and bound <= swap_bound(m, eps_bar)


def test_invalid_instance_rejected():
    broken = Instance(
        agents=("1", "2"),
        weights=(Fraction(1, 2), Fraction(1, 3)),
        items=("a", "b"),
        valuations=(Additive({"a": 1, "b": 1}), Additive({"a": 1, "b": 1})),
    )
    with pytest.raises(ValueError):
        solve_nsw(broken, eps=0.1)


def test_fewer_items_than_agents_is_infeasible():
    inst = make_instance({"1": {"a": 1}, "2": {"a": 1}})
    report = solve_nsw(inst, eps=0.1)
    assert not report.feasible
    assert report.log_nsw == float("-inf")
    assert report.nsw() == 0.0
    assert report.allocation.is_complete(inst)
    assert report.allocation.bundle("1") == frozenset({"a"})


def test_zero_values_block_every_matching():
    inst = make_instance({"1": {"a": 1, "b": 1}, "2": {"a": 0, "b": 0}})
    report = solve_nsw(inst, eps=0.1)
    assert not report.feasible
    assert report.allocation.is_complete(inst)
    assert brute_force_opt(inst).opt_log == float("-inf")


def test_no_items_at_all():
    inst = Instance(
        agents=("1", "2"),
        weights=(Fraction(1, 2), Fraction(1, 2)),
        items=(),
        valuations=(Additive({}), Additive({})),
    )
    report = solve_nsw(inst, eps=0.1)
    assert not report.feasible
    assert report.eps_bar == 0.0


def test_square_additive_instances_are_solved_exactly():
    # With m == n every positive-welfare allocation is a perfect matching,
    # so phase 1 alone already attains the optimum.
    for seed in range(6):
        inst = random_instance("additive", n=3, m=3, seed=seed)
        report = solve_nsw(inst, eps=0.1)
        opt = brute_force_opt(inst)
        if opt.opt_log == float("-inf"):
            assert not report.feasible
        else:
            assert report.log_nsw == pytest.approx(opt.opt_log, abs=1e-9)


def test_phi_anchor_values():
    assert phi(0.0) == pytest.approx(2.0, abs=1e-6)
    assert phi(3.5) == pytest.approx(4.5, abs=1e-6)
    assert phi(10.0) == pytest.approx(11.0, abs=1e-6)
    with pytest.raises(ValueError):
        phi(-0.1)


def test_phi_stays_between_its_envelopes():
    nu = 0.0
    previous = 2.0
    while nu <= 12.0:
        val = phi(nu)
        assert val <= nu + 2.0 + 1e-6
        assert val >= max(2.0, 1.0 + nu) - 1e-9
        assert val >= previous - 1e-9  # nondecreasing in nu
        previous = val
        nu += 0.1


def test_guarantee_factors_symmetric(e1):
    g = guarantee_factor(e1, 0.1)
    assert g.symmetric == pytest.approx(4.1)
    assert g.asymmetric == pytest.approx((1.0 + 2.0 + 0.1) * math.e, rel=1e-12)
    assert g.strong == pytest.approx((phi(1.0) + 0.1) * math.e, rel=1e-12)
    assert g.best() == pytest.approx(4.1)


def test_guarantee_factors_asymmetric():
    inst = make_instance(
        {"1": {"a": 1, "b": 1}, "2": {"a": 1, "b": 1}},
        weights=[(3, 4), (1, 4)],
    )
    g = guarantee_factor(inst, 0.1)
    assert g.symmetric is None
    assert g.asymmetric == pytest.approx((1.5 + 2.0 + 0.1) * math.e, rel=1e-12)
    assert g.strong == pytest.approx((phi(1.5) + 0.1) * math.e, rel=1e-12)
    # phi(nu) <= nu + 2 makes the phi-based factor the binding one
    assert g.best() == pytest.approx(g.strong, rel=1e-12)
    assert g.strong <= g.asymmetric + 1e-12


@pytest.mark.parametrize("eps", [1e-6, 0.1, 1.0, 1e300])
def test_the_strong_factor_never_exceeds_the_asymmetric_one(eps):
    # best() has no asymmetric candidate: phi(nu) <= nu + 2, and adding eps and multiplying
    # by e keep that order in floats, so the minimum over all three factors is unchanged.
    nus = [Fraction(k, 100) for k in range(100, 100_001, 99)] + [Fraction(1000)]
    for nu in nus:
        for symmetric in (False, True):
            # all guarantee_factor reads of an instance: n * w_max = nu, and is_symmetric()
            profile = SimpleNamespace(n=1, weights=(nu,), is_symmetric=lambda: symmetric)
            g = guarantee_factor(profile, eps)
            assert g.strong <= g.asymmetric, nu
            assert g.best() == min(f for f in (g.symmetric, g.asymmetric, g.strong) if f is not None)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -0.1, 1e308])
def test_guarantee_factors_need_a_finite_nonnegative_eps(e1, eps):
    # A nan eps would make every factor nan and every ratio check fail silently.
    with pytest.raises(ValueError, match="eps must be a finite nonnegative number"):
        guarantee_factor(e1, eps)


def test_an_overflowing_guarantee_factor_is_refused_before_the_solve(e1, monkeypatch):
    # (n * w_max + 2 + eps) * e is inf for eps = 1e308, whatever the instance.
    monkeypatch.setattr(pipeline_mod, "solve_assignment", None)  # phase 1 must not start
    with pytest.raises(ValueError, match="small enough for finite factors"):
        solve_nsw(e1, 1e308)


def test_rematching_never_loses_to_the_first_matching():
    for seed in range(8):
        inst = random_instance("budget_additive", n=3, m=6, seed=seed)
        report = solve_nsw(inst, eps=0.1)
        if not report.feasible:
            continue
        keep_tau = Allocation(
            {a: report.search.bundles[a] | {report.tau[a]} for a in inst.agents}
        )
        assert report.log_nsw >= nsw_log(inst, keep_tau) - 1e-9


@pytest.mark.parametrize("family", FAMILIES)
def test_small_instances_meet_the_factor(family):
    for seed in range(4):
        inst = random_instance(family, n=2, m=5, seed=seed)
        report = solve_nsw(inst, eps=0.1)
        opt = brute_force_opt(inst)
        if opt.opt_log == float("-inf"):
            assert not report.feasible
            continue
        ratio = math.exp(opt.opt_log - report.log_nsw)
        assert ratio <= report.guarantee.best() + 1e-9


def test_report_serializes(e1, cold_start):
    report = solve_nsw(e1, eps=0.1)
    doc = report.to_json()
    text = json.dumps(doc)
    assert json.loads(text)["swaps"] == 1
    assert doc["allocation"] == {"1": ["a", "d"], "2": ["b", "c"]}
    infeasible = solve_nsw(make_instance({"1": {"a": 1}, "2": {"a": 1}}), eps=0.1)
    assert infeasible.to_json()["log_nsw"] == "-inf"


def test_solver_is_deterministic():
    inst = random_instance("coverage", n=3, m=7, seed=42, weight_mode="random_rational")
    a = solve_nsw(inst, eps=0.2)
    b = solve_nsw(inst, eps=0.2)
    assert a.to_json() == b.to_json()


def test_one_singleton_table_per_solve(monkeypatch):
    # The instance fills its table of v_i({j}) once, from an empty bundle state per
    # valuation and with no value() call; phase 1, the search, the recheck and the
    # prices read that table, and a second solve of the same instance fills nothing.
    singles, filled = [], []
    base_value, fill = Coverage.value, Instance.__dict__["singleton_array"].func

    def counted_value(self, bundle):
        bundle = frozenset(bundle)
        singles.extend(bundle if len(bundle) == 1 else ())
        return base_value(self, bundle)

    def counted_fill(self):
        filled.append(self)
        return fill(self)

    table = cached_property(counted_fill)
    table.__set_name__(Instance, "singleton_array")
    monkeypatch.setattr(Coverage, "value", counted_value)
    monkeypatch.setattr(Instance, "singleton_array", table)
    inst = random_instance("coverage", 12, 120, 11)
    first = solve_nsw(inst, 0.1)
    assert first.feasible
    assert len(filled) == 1 and filled[0] is inst and singles == []
    assert sum(map(len, inst.singleton_array)) == inst.n * inst.m == 1440
    assert solve_nsw(inst, 0.1).to_json() == first.to_json()
    assert len(filled) == 1 and singles == []


@pytest.mark.parametrize("family", FAMILIES)
def test_a_solve_reads_each_value_of_all_items_once(monkeypatch, family):
    # validate reads v_i(M), M all the items, from Instance.full_values, and the search and
    # the recheck read it there for their saturated-taker rule: validate and a whole solve
    # make one value(M) call per agent.
    inst = random_instance(family, 12, 120, 11)
    everything, calls = frozenset(inst.items), []
    kind = type(inst.valuations[0])
    base_value = kind.value

    def counted_value(self, bundle):
        bundle = frozenset(bundle)
        calls.extend([self] if bundle == everything else [])
        return base_value(self, bundle)

    monkeypatch.setattr(kind, "value", counted_value)
    assert validate(inst) == []
    assert solve_nsw(inst, 0.1).feasible
    assert [sum(call is v for call in calls) for v in inst.valuations] == [1] * inst.n


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_certificate_stages_alone_match_the_solve(case):
    # Each stage called alone, on a fresh instance whose singleton table the
    # stage fills itself, gives the floats the solve gave, in either order on
    # one certificate table.
    family, mode, n, m, seed = case
    report = solve_nsw(random_instance(family, n, m, seed, mode), 0.1)
    if report.search is None:
        return
    inst = random_instance(family, n, m, seed, mode)
    search = local_search(inst, report.search.universe, report.eps_bar)
    assert replace(report.search, certificate=None) == search
    certs, local_opt = report.certificates, report.search.certificate
    assert local_opt.violations == certs.local_opt_violations
    spending = (certs.spending_asymmetric, certs.spending_symmetric)
    priced_first = certificate_table(inst, search.bundles)
    assert tuple(map(check_spending, prices(priced_first))) == spending
    assert verify_local_opt(priced_first, report.eps_bar) == local_opt
    checked_first = certificate_table(inst, search.bundles)
    assert verify_local_opt(checked_first, report.eps_bar) == local_opt
    assert tuple(map(check_spending, prices(checked_first))) == spending


EXTREME_VALUES = st.sampled_from([0.0, 5e-324, 1e-300, 1e-5, 0.1, 1 / 3, 1.0, 7.0, 1e6, 1e150, 1e300])


@st.composite
def extreme_additive_instances(draw):
    """(agents, weights, items, values) of an additive instance: 1-4 agents, 0-9 items (fewer
    items than agents allowed), values from zero and the smallest subnormal up to 1e300."""
    n, m = draw(st.integers(1, 4), label="n"), draw(st.integers(0, 9), label="m")
    items = tuple(f"g{j}" for j in range(m))
    values = [{j: draw(EXTREME_VALUES) for j in items} for _ in range(n)]
    if draw(st.sampled_from(["symmetric", "random_rational"])) == "symmetric":
        weights = [Fraction(1, n)] * n
    else:
        parts = [draw(st.integers(1, 10)) for _ in range(n)]
        weights = [Fraction(p, sum(parts)) for p in parts]
    return tuple(f"a{i}" for i in range(n)), tuple(weights), items, values


@settings(max_examples=300, deadline=None)
@given(data=extreme_additive_instances(), eps=st.sampled_from([1e-12, 1e-6, 0.01, 0.1, 1.0]))
def test_extreme_values_solve_to_passing_checks_or_raise_value_error(data, eps):
    # Bad input raises ValueError (exit 1); anything else escaping is a bug.
    def build():
        agents, weights, items, values = data
        return Instance(agents, weights, items, tuple(Additive(v) for v in values))

    inst = build()
    try:
        report = solve_nsw(inst, eps)
    except ValueError:
        return
    assert solve_nsw(build(), eps).to_json() == report.to_json()
    run = _Run(inst, report.log_nsw, report)
    assert all(ok in (True, None) for _, ok in _checks(run))
    if report.feasible and inst.is_symmetric():
        assert all(ok for _, ok in _checks(_made_fair(run, report.allocation)))


def reports_in_both_forms(build, eps):
    """The canonical report of ``solve_nsw(build(), eps)``, or its ValueError's message, with every
    table in its per-cell form and then in its numpy form."""
    outcomes = []
    for cells in (math.inf, 0):
        with numpy_from(cells):
            try:
                report = solve_nsw(build(), eps)
            except ValueError as exc:
                outcomes.append(str(exc))
                continue
        trace = [(s.giver, s.item, s.taker, s.log_gain.hex()) for s in report.search.trace] if report.search else []
        outcomes.append((json.dumps(report.to_json(), sort_keys=True), trace))
    return outcomes


# Two values whose np.log is one ulp off math.log under numpy 2.4.6 on an AVX-512 x86-64 CPU.
NP_LOG_OFF = [1.9238862133101404, 0.9762132102920728]
# Special values of the welfare map: signed zeros, negatives, nan, infinities, the smallest
# subnormal, huge values and repeats (the numpy form takes one log per distinct value).
MAP_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -5e-324, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e308, 0.1, 1.0, 3.0]),
    st.sampled_from(NP_LOG_OFF),
    st.floats(),
)


@st.composite
def value_tables(draw):
    """1-3 rows of up to 40 values each, as the matching tables' values arrive: one row per agent."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    return np.array([draw(st.lists(MAP_VALUES, min_size=m, max_size=m)) for _ in range(n)], dtype=float)


@settings(max_examples=200, deadline=None)
@given(values=value_tables(), weight_mode=st.sampled_from(WEIGHT_MODES))
@example(values=np.array([[0.0, -0.0, -2.0, math.nan, math.inf, 5e-324, 1e308, 3.0, 3.0, 5e-324]]), weight_mode="symmetric")
@example(values=np.array([NP_LOG_OFF]), weight_mode="symmetric")
def test_welfare_scores_equal_welfare_term_in_both_forms(values, weight_mode):
    inst = random_instance("additive", len(values), 4, 1, weight_mode)
    expected = [[welfare_term(w, x).hex() for x in row] for w, row in zip(inst.weight_floats, values.tolist())]
    for cells in (math.inf, 0):
        with numpy_from(cells):
            table = welfare_terms(inst.weight_floats, values)
        assert isinstance(table, np.ndarray) == (cells == 0)
        assert [[float(x).hex() for x in row] for row in table] == expected


def assert_oracle_terms(inst, numpy_form):
    """Each agent's 2^m subset values, as the exact oracle maps them: welfare_terms in the given
    form, and the oracle's own table, give welfare_term of each cell, bit for bit."""
    for i, (w, v) in enumerate(zip(inst.weight_floats, inst.valuations)):
        values = subset_values(v, inst.items)
        expected = [welfare_term(w, x).hex() for x in values.tolist()]
        table = welfare_terms((w,), values[None])
        assert isinstance(table, np.ndarray) == numpy_form
        assert [float(x).hex() for x in table[0]] == expected
        assert [x.hex() for x in oracle._log_table(inst, i).tolist()] == expected


@pytest.mark.parametrize("weight_mode", WEIGHT_MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_welfare_terms_equal_welfare_term_on_the_oracles_subset_tables(family, weight_mode):
    # 2x5 tables have 32 entries, mapped cell by cell; 3x8 tables have 256, mapped in numpy.
    assert_oracle_terms(random_instance(family, 2, 5, 1, weight_mode), numpy_form=False)
    assert_oracle_terms(random_instance(family, 3, 8, 2, weight_mode), numpy_form=True)


@pytest.mark.parametrize("m", [3, 8])
def test_welfare_terms_on_a_table_of_zero_subnormal_and_huge_values(m):
    # An additive table: the empty set is worth 0.0, the second item alone the smallest
    # subnormal, every set with the first item 1e300.
    items = [f"g{t}" for t in range(m)]
    item_values = [1e300, 5e-324, 1e-300, 1e-10, 1.0, 3.0, 1e10, 1e100][:m]
    sums = [math.fsum(x for t, x in enumerate(item_values) if mask >> t & 1) for mask in range(1 << m)]
    table = ExplicitTable(items, sums)
    inst = Instance(("1", "2"), (Fraction(1, 3), Fraction(2, 3)), tuple(items), (table, table))
    assert {0.0, 5e-324, 1e300} <= set(subset_values(table, items).tolist())
    assert_oracle_terms(inst, numpy_form=m == 8)


@pytest.mark.parametrize("weight_mode", WEIGHT_MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_both_table_forms_give_the_same_report(family, weight_mode):
    # From SCREEN_MIN_CELLS cells on, the welfare tables, the matching ranks, the taker screen
    # and the deal take their numpy forms; every size gives the same report in either form.
    for n, m, seed in ((2, 6, 1), (3, 8, 2), (5, 30, 3), (12, 120, 4), (20, 200, 5)):
        outcomes = reports_in_both_forms(lambda: random_instance(family, n, m, seed, weight_mode), 0.1)
        assert outcomes[0] == outcomes[1], (n, m)


@settings(max_examples=150, deadline=None)
@given(data=extreme_additive_instances(), eps=st.sampled_from([1e-12, 1e-6, 0.01, 0.1, 1.0]))
def test_extreme_values_give_one_report_in_both_table_forms(data, eps):
    agents, weights, items, values = data
    outcomes = reports_in_both_forms(lambda: Instance(agents, weights, items, tuple(Additive(v) for v in values)), eps)
    assert outcomes[0] == outcomes[1]
