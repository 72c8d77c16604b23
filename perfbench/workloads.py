"""The benchmark's three workloads: how each one makes its inputs, runs one op
and checks that op's output.

Every workload derives its op list from the workload seed alone, so the same
seed always gives the same inputs. An op is the unit the closed loop times;
its output is checked as soon as it returns, outside the timed region.

Nothing here imports ``nswfair`` at module level: the benchmark times that
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

EPS = 0.1
LOG2 = math.log(2.0)
TOL = 1e-9

EXACT_FAMILIES = ("additive", "budget_additive", "coverage", "partition_matroid_rank")
EXACT_MODES = ("symmetric", "random_rational")


@dataclass(frozen=True)
class Shape:
    """Instance size and op count of one workload.

    ``seeds`` instance seeds make the op list: one op each on search-heavy
    and match-heavy, eight (4 families x 2 weight modes) on exact-batch.
    A traced run uses the first ``traced_ops`` ops only, because it makes
    three passes, one of them slowed by the value() hook.
    """

    n: int
    m: int
    seeds: int
    traced_ops: int


# One untraced pass over each op list takes about 25-30 s at the seed commit
# on a shared 2-vCPU machine.
SHAPES: Dict[str, Shape] = {
    "search-heavy": Shape(n=12, m=120, seeds=9, traced_ops=3),
    "match-heavy": Shape(n=20, m=200, seeds=7, traced_ops=3),
    "exact-batch": Shape(n=3, m=8, seeds=8, traced_ops=64),
}

# Tiny shapes that run every path, check and hook in a few seconds.
SMOKE_SHAPES: Dict[str, Shape] = {
    "search-heavy": Shape(n=3, m=14, seeds=2, traced_ops=2),
    "match-heavy": Shape(n=4, m=24, seeds=2, traced_ops=2),
    "exact-batch": Shape(n=2, m=5, seeds=1, traced_ops=8),
}


@dataclass
class OpOutput:
    """What one op returned, reduced to what the checks need."""

    report: bytes  # canonical report JSON of the op's instances, concatenated
    figures: List[dict]  # per instance: log_nsw, log_share, and efx_loss / opt_ratio where known
    problems: List[str]


def _seeds(workload: str, seed: int, count: int) -> List[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def _complete(inst, bundles: Dict[str, List[str]]) -> Optional[str]:
    """None when ``bundles`` hand out every item exactly once."""
    given = [j for b in bundles.values() for j in b]
    if len(given) != len(set(given)) or set(given) != set(inst.items):
        return "allocation is not a complete partition of the items"
    return None


def _solve_figures(inst, alloc, feasible: bool, log_nsw: float) -> dict:
    """Log NSW, and the weighted mean log of each agent's value over its
    proportional share (its weight's share of its value for all items).

    The second is the log NSW less a per-instance scale, so its average over
    a seed's instances moves little from seed to seed. Both are None when the
    allocation leaves an agent with nothing.
    """
    if not feasible:
        return {"log_nsw": None, "log_share": None}
    total = sum(inst.weight_floats)
    log_share = 0.0
    for agent, w in zip(inst.agents, inst.weight_floats):
        valuation, share = inst.valuation_of(agent), w / total
        log_share += share * math.log(valuation.value(alloc.bundle(agent)) / (share * valuation.value(inst.items)))
    return {"log_nsw": log_nsw, "log_share": log_share}


def _check_solve(inst, doc: dict, opt_ratio: Optional[float]) -> List[str]:
    """Checks shared by both paths on a solve report's JSON document."""
    problems = []
    missing = _complete(inst, doc["allocation"])
    if missing:
        problems.append(missing)
    certs = doc["certificates"]
    if certs["local_opt_violations"]:
        problems.append(f"{len(certs['local_opt_violations'])} local-optimality violations")
    if doc["swaps"] > certs["swap_limit"] and doc["feasible"]:
        problems.append(f"swaps {doc['swaps']} above the limit {certs['swap_limit']}")
    if opt_ratio is not None:
        best = min(v for v in doc["guarantee"].values() if v is not None)
        if not opt_ratio <= best + TOL:
            problems.append(f"ratio {opt_ratio} above the guaranteed factor {best}")
    return problems


def _check_efx(inst, solve_alloc, fair_alloc, figures: dict) -> List[str]:
    """1/2-EFX, completeness and the log 2 welfare floor of a fairness output."""
    from nswfair import half_efx_check, nsw_log

    problems = []
    missing = _complete(inst, {a: list(b) for a, b in fair_alloc.bundles.items()})
    if missing:
        problems.append("efx " + missing)
    if half_efx_check(inst, fair_alloc):
        problems.append("efx output fails half_efx_check")
    before, after = nsw_log(inst, solve_alloc), nsw_log(inst, fair_alloc)
    if math.isfinite(before):
        loss = before - after
        figures["efx_loss"] = loss
        if not loss <= LOG2 + TOL:
            problems.append(f"efx loses {loss} > log 2")
    return problems


# ---------------------------------------------------------------------------
# Library path: search-heavy and match-heavy
# ---------------------------------------------------------------------------


def _library_cases(workload: str, seed: int, shape: Shape, workdir: str) -> list:
    from nswfair import generate

    seeds = _seeds(workload, seed, 2 * shape.seeds)
    if workload == "search-heavy":
        # One op solves a coverage and an additive instance. Their solve times
        # sit in two separate modes, so a median over single-instance ops
        # would fall between the modes and jump from seed to seed.
        return [
            (
                generate.random_instance("coverage", shape.n, shape.m, seeds[2 * k], "symmetric"),
                generate.random_instance("additive", shape.n, shape.m, seeds[2 * k + 1], "symmetric"),
            )
            for k in range(shape.seeds)
        ]
    return [
        (generate.random_instance("partition_matroid_rank", shape.n, shape.m, s, "random_rational"),)
        for s in seeds[: shape.seeds]
    ]


def _library_op(case: tuple) -> list:
    from nswfair import efx, pipeline

    out = []
    for inst in case:
        report = pipeline.solve_nsw(inst, EPS)
        fair = efx.guarantee_half_efx(inst, report.allocation) if inst.is_symmetric() else None
        out.append((report, fair))
    return out


def _library_check(case: tuple, result: list) -> OpOutput:
    from nswfair.instance import allocation_to_json, canonical_json

    reports, figures_list, problems = [], [], []
    for inst, (report, fair) in zip(case, result):
        doc = report.to_json()
        figures = _solve_figures(inst, report.allocation, report.feasible, report.log_nsw)
        problems += _check_solve(inst, doc, None)
        if fair is not None:
            doc["efx_allocation"] = allocation_to_json(inst, fair)["bundles"]
            problems += _check_efx(inst, report.allocation, fair, figures)
        reports.append(canonical_json(doc).encode())
        figures_list.append(figures)
    return OpOutput(b"".join(reports), figures_list, problems)


# ---------------------------------------------------------------------------
# CLI path: exact-batch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliCase:
    inst: object
    path: str
    out: str

    @property
    def argv(self) -> List[str]:
        argv = ["solve", self.path, "--exact", "--verify", "--out", self.out]
        return argv + ["--efx"] if self.inst.is_symmetric() else argv


def _exact_cases(workload: str, seed: int, shape: Shape, workdir: str) -> List[CliCase]:
    from nswfair import generate, instance

    seeds = _seeds(workload, seed, shape.seeds)
    cases = []
    for s in seeds:
        for family in EXACT_FAMILIES:
            for mode in EXACT_MODES:
                inst = generate.random_instance(family, shape.n, shape.m, s, mode)
                k = len(cases)
                path = os.path.join(workdir, f"inst{k}.json")
                instance.save_instance(inst, path)
                cases.append(CliCase(inst, path, os.path.join(workdir, f"out{k}.json")))
    return cases


def _exact_op(case: CliCase) -> int:
    from nswfair import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(case.argv)


def _exact_check(case: CliCase, code: int) -> OpOutput:
    """Checks the op's report file, then removes it."""
    from nswfair.instance import Allocation

    if code != 0 or not os.path.exists(case.out):
        return OpOutput(b"", [], [f"cli exit code {code}"])
    with open(case.out, "rb") as fh:
        data = fh.read()
    os.remove(case.out)
    doc = json.loads(data)
    inst = case.inst
    figures = _solve_figures(inst, Allocation.of(doc["allocation"]), doc["feasible"], doc["log_nsw"])
    opt = doc["exact"]
    ratio = None
    if opt["opt_log_nsw"] != "-inf":
        ratio = float(opt["ratio"])
        figures["opt_ratio"] = ratio
    problems = _check_solve(inst, doc, ratio)
    if inst.is_symmetric():
        fair = Allocation.of(doc["efx"]["allocation"])
        if not doc["efx"]["half_efx"]:
            problems.append("cli reports a failed 1/2-EFX stage")
        problems += _check_efx(inst, Allocation.of(doc["allocation"]), fair, figures)
    return OpOutput(data, [figures], problems)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_cases: Callable[[str, int, Shape, str], list]
    run_op: Callable[[object], object]
    check: Callable[[object, object], OpOutput]
    instances_per_op: int


WORKLOADS: Dict[str, Workload] = {
    "search-heavy": Workload(_library_cases, _library_op, _library_check, 2),
    "match-heavy": Workload(_library_cases, _library_op, _library_check, 1),
    "exact-batch": Workload(_exact_cases, _exact_op, _exact_check, 1),
}
