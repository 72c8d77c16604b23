"""Acceptance gate: every advertised guarantee, exercised end to end.

One test per criterion; each prints a single PASS/FAIL line to the real
stdout (bypassing capture) so batch logs read at a glance. Two seeded
instance batches are built once and shared: 500 symmetric and 200
random-rational-weight instances across all four generator families.
"""

import math
import random
import time

import pytest

from nswfair import (
    Allocation,
    brute_force_opt,
    check_submodular,
    guarantee_half_efx,
    half_efx_check,
    make_fair_or_efficient,
    nsw_log,
    phi,
    ratio_of_logs,
    solve_nsw,
)
from nswfair.generate import FAMILIES, random_instance

NEG_INF = float("-inf")


@pytest.fixture
def announce(capsys):
    def _announce(num: int, ok: bool, detail: str) -> None:
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _announce


def batch_instance(i: int, mode: str, seed_base: int):
    family = FAMILIES[i % 4]
    n = 2 + (i // 4) % 2
    m = 4 + (i // 8) % 4
    return random_instance(family, n, m, seed=seed_base + i, weight_mode=mode)


@pytest.fixture(scope="module")
def symmetric_batch():
    start = time.monotonic()
    rows = []
    for i in range(500):
        inst = batch_instance(i, "symmetric", 0)
        report = solve_nsw(inst, eps=0.1)
        opt = brute_force_opt(inst)
        rows.append((inst, report, opt))
    return rows, time.monotonic() - start


@pytest.fixture(scope="module")
def asymmetric_batch():
    rows = []
    for i in range(200):
        inst = batch_instance(i, "random_rational", 10_000)
        report = solve_nsw(inst, eps=0.1)
        opt = brute_force_opt(inst)
        rows.append((inst, report, opt))
    return rows


def test_criterion_1_symmetric_factor(symmetric_batch, announce):
    rows, elapsed = symmetric_batch
    checked = 0
    worst = 1.0
    bad = []
    for inst, report, opt in rows:
        if opt.opt_log == NEG_INF:
            continue
        checked += 1
        r = ratio_of_logs(opt.opt_log, report.log_nsw)
        worst = max(worst, r)
        if not r <= 4.1:
            bad.append(r)
    announce(
        1,
        not bad and checked > 0 and elapsed < 120.0,
        f"ratio <= 4.1 on {checked}/{len(rows)} positive-OPT symmetric instances"
        f" (worst {worst:.4f}, batch {elapsed:.1f}s)",
    )


def test_criterion_2_asymmetric_factor(asymmetric_batch, announce):
    checked = 0
    bad = []
    for inst, report, opt in asymmetric_batch:
        if opt.opt_log == NEG_INF:
            continue
        checked += 1
        r = ratio_of_logs(opt.opt_log, report.log_nsw)
        nu = float(inst.n * max(inst.weights))
        plain = (nu + 2.0 + 0.1) * math.e
        strong = (phi(nu) + 0.1) * math.e
        if not (r <= plain and r <= strong):
            bad.append((r, plain, strong))
    announce(
        2,
        not bad and checked > 0,
        f"both e-factor bounds hold on {checked}/{len(asymmetric_batch)} asymmetric instances",
    )


def test_criterion_3_local_optimality(symmetric_batch, asymmetric_batch, announce):
    rows = symmetric_batch[0] + asymmetric_batch
    bad = [
        report.certificates.local_opt_violations
        for _, report, _ in rows
        if report.certificates.local_opt_violations
    ]
    announce(3, not bad, f"exhaustive local-opt recheck clean on {len(rows)} solves")


def test_criterion_4_bounded_spending(symmetric_batch, asymmetric_batch, announce):
    rows = symmetric_batch[0] + asymmetric_batch
    tol = 1e-9
    checked = 0
    bad = []
    for inst, report, _ in rows:
        asym = report.certificates.spending_asymmetric
        sym = report.certificates.spending_symmetric
        if asym is None or sym is None:
            continue  # infeasible instance, nothing was searched
        checked += 1
        w = dict(zip(inst.agents, inst.weight_floats))
        for agent, (spent, cap) in asym.per_agent.items():
            if not (spent <= w[agent] + tol and cap == w[agent]):
                bad.append(("asym", agent, spent))
        if not asym.total_spent <= 1.0 + tol:
            bad.append(("asym-total", asym.total_spent))
        for agent, (spent, cap) in sym.per_agent.items():
            if not (spent <= 1.0 + tol and cap == 1.0):
                bad.append(("sym", agent, spent))
    announce(4, not bad and checked > 0, f"spending caps within 1e-9 on {checked} feasible solves")


def test_criterion_5_swap_budget(symmetric_batch, asymmetric_batch, announce):
    rows = symmetric_batch[0] + asymmetric_batch
    bad = []
    for inst, report, _ in rows:
        if not report.feasible:
            continue
        limit = math.log(inst.m) / math.log1p(report.eps_bar) + 1.0
        if not report.swaps <= limit:
            bad.append((report.swaps, limit))
    announce(5, not bad, f"swap counts within log(m)/log(1+eps_bar)+1 on {len(rows)} solves")


def test_criterion_6_fairness_pipeline(symmetric_batch, announce):
    rows, _ = symmetric_batch
    floor_slack = math.log(2.0) + 1e-9
    checked = 0
    end_to_end = 1.0
    bad = []
    for inst, report, opt in rows:
        fair = guarantee_half_efx(inst, report.allocation)
        checked += 1
        fair_log = nsw_log(inst, fair)
        if not fair.is_complete(inst):
            bad.append(("incomplete", inst.agents))
        if half_efx_check(inst, fair):
            bad.append(("not-half-efx", inst.agents))
        if report.log_nsw != NEG_INF and not fair_log >= report.log_nsw - floor_slack:
            bad.append(("welfare-floor", fair_log, report.log_nsw))
        if opt.opt_log != NEG_INF:
            r = ratio_of_logs(opt.opt_log, fair_log)
            end_to_end = max(end_to_end, r)
            if not r <= 8.2:
                bad.append(("end-to-end", r))
    announce(
        6,
        not bad and checked == len(rows),
        f"complete half-EFX at half welfare on {checked} instances"
        f" (worst OPT/fair {end_to_end:.4f} <= 8.2)",
    )


def test_criterion_7_fair_or_efficient_contract(announce):
    rng = random.Random(20260814)
    trials = 1000
    bad = []
    for t in range(trials):
        inst = random_instance(
            FAMILIES[t % 4], n=2 + t % 2, m=4 + t % 3, seed=40_000 + t
        )
        bundles = {a: set() for a in inst.agents}
        for item in inst.items:
            pick = rng.randrange(inst.n + 1)
            if pick < inst.n:
                bundles[inst.agents[pick]].add(item)
        before = Allocation.of(bundles)
        outcome = make_fair_or_efficient(inst, before)
        after = outcome.allocation
        before_log = nsw_log(inst, before)
        after_log = nsw_log(inst, after)
        if outcome.tag == "half_efx":
            if half_efx_check(inst, after):
                bad.append((t, "not-half-efx"))
            if before_log != NEG_INF and not after_log >= before_log - math.log(2.0) - 1e-9:
                bad.append((t, "welfare-half"))
        elif outcome.tag == "support_shrunk":
            if not after.allocated() < before.allocated():
                bad.append((t, "support"))
            if not after_log >= before_log - 1e-9:
                bad.append((t, "welfare-kept"))
        else:
            bad.append((t, "unknown-tag"))
    announce(7, not bad, f"fair-or-efficient contract held on {trials} random partial allocations")


def test_criterion_8_phi_anchors(announce):
    bad = []
    if abs(phi(0.0) - 2.0) > 1e-6:
        bad.append(("phi(0)", phi(0.0)))
    for nu in (3.5, 5.0, 10.0):
        if abs(phi(nu) - (nu + 1.0)) > 1e-6:
            bad.append((f"phi({nu})", phi(nu)))
    for step in range(101):
        nu = step / 10.0
        if phi(nu) > nu + 2.0 + 1e-6:
            bad.append(("envelope", nu, phi(nu)))
    announce(8, not bad, "phi anchors and the nu+2 envelope hold on [0, 10]")


def _endowed_table(v, items):
    """vbar(S) = v(favorite) + v(S) on every subset S of ``items``, by mask."""
    offset = max(v.value([j]) for j in items)
    subsets = ([items[b] for b in range(len(items)) if mask >> b & 1] for mask in range(1 << len(items)))
    return [offset + v.value(subset) for subset in subsets]


def _ratio_property_failures(vals, m):
    out = []
    for t_mask in range(1 << m):
        for bit in range(m):
            if t_mask >> bit & 1:
                continue
            jbit = 1 << bit
            lhs = vals[t_mask | jbit] / vals[t_mask]
            s_mask = t_mask
            while True:
                if vals[s_mask | jbit] / vals[s_mask] < lhs - 1e-9:
                    out.append((s_mask, t_mask, bit))
                if s_mask == 0:
                    break
                s_mask = (s_mask - 1) & t_mask
    return out


def _marginal_property_failures(vals, m):
    out = []
    for r_mask in range(1, 1 << m):
        bits = [b for b in range(m) if r_mask >> b & 1]
        margin_sum = sum(vals[r_mask] - vals[r_mask & ~(1 << b)] for b in bits)
        for b in bits:
            if vals[r_mask & ~(1 << b)] < margin_sum - 1e-9:
                out.append((r_mask, b))
    return out


def test_criterion_9_structure_suites(announce):
    bad = []
    endowed_checked = 0
    for family in FAMILIES:
        for seed in (0, 1):
            inst = random_instance(family, n=2, m=8, seed=seed)
            for agent in inst.agents:
                v = inst.valuation_of(agent)
                if v.value(inst.items) <= 0.0:
                    continue
                vals = _endowed_table(v, list(inst.items))
                endowed_checked += 1
                if _ratio_property_failures(vals, 8):
                    bad.append((family, seed, agent, "ratio"))
                if _marginal_property_failures(vals, 8):
                    bad.append((family, seed, agent, "marginal"))
    screened = 0
    for family in FAMILIES:
        for seed in (0, 1):
            inst = random_instance(family, n=2, m=10, seed=seed)
            for agent in inst.agents:
                screened += 1
                if check_submodular(inst.valuation_of(agent), inst.items):
                    bad.append((family, seed, agent, "submodularity"))
    announce(
        9,
        not bad and endowed_checked > 0,
        f"endowed ratio/marginal facts exhaustive on {endowed_checked} 8-item valuations;"
        f" submodularity screen clean on {screened} 10-item valuations",
    )
