"""Closed-loop benchmark of the nswfair solver.

    python3 perfbench/run.py --workload search-heavy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One process runs one workload, single-threaded, as a closed loop: one op at a
time, the next op starting when the previous one returns. The instance list
comes from ``--seed`` alone. Every run's output is checked as it returns.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the
workload's op list four times (warm-up, untraced, with spans, with value() counts)
and prints the per-layer metrics. Each run prints one detail line
(environment, quality figures, digest, span table), then the result as the
last line of standard output. ``--smoke`` runs every workload, check and hook
on tiny shapes and exits 0 only when all of them pass.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "nswfair"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 6  # fresh-process set-ups on top of the run's own

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from gauge import Gauge, spot_scale  # noqa: E402
from workloads import SHAPES, SMOKE_SHAPES, WORKLOADS, Shape  # noqa: E402


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup(name: str, seed: int, shape: Shape, workdir: str) -> Tuple[list, float]:
    """Import nswfair, make the instance list and write its files; timed."""
    start = time.perf_counter()
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    importlib.import_module("nswfair")
    importlib.import_module("nswfair.cli")
    cases = WORKLOADS[name].make_cases(name, seed, shape, workdir)
    return cases, time.perf_counter() - start


def setup_in_fresh_processes(name: str, seed: int, smoke: bool, repeats: int) -> List[Tuple[float, float]]:
    """(measured set-up time, gauge scale taken right after it) per process."""
    samples = []
    for _ in range(repeats):
        argv = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", name, "--seed", str(seed)]
        proc = subprocess.run(
            argv + (["--smoke"] if smoke else []), cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        elapsed, scale = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(elapsed), float(scale)))
    return samples


def workdir() -> str:
    WORK.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=WORK)


# ---------------------------------------------------------------------------
# Running and checking ops
# ---------------------------------------------------------------------------


class Loop(NamedTuple):
    latencies: List[List[float]]  # per op, the time of each run that returned
    attempted: int  # runs started
    completed: int  # runs that returned
    busy: float  # seconds spent inside ops, checks and gauge excluded


def closed_loop(wl, cases: list, checker: "Checker", seconds: float, tracer=None, gauge=None) -> Loop:
    """Run whole passes over the ops, one op at a time. The first pass always
    runs; another starts only while a pass as long as the last one still ends
    within ``seconds``, so every op runs equally often and the run overshoots
    ``seconds`` by no more than its first pass.

    The op list is sized so that one pass fills a run at the seed commit:
    on a shared machine a single solve varies by about 10% from one run to
    the next, and a median over more distinct ops averages that out better
    than repeats of a few ops do. Each run is checked as soon as it returns,
    outside the timing, and its output is then dropped, so a run keeps only
    its latency. An op that raises is counted as failed and not run again.
    The gauge, when given, runs before each op, outside its timing.
    """
    latencies: List[List[float]] = [[] for _ in cases]
    broken: set = set()
    attempted = completed = 0
    busy = 0.0
    start = last = time.perf_counter()
    while True:
        for k, case in enumerate(cases):
            if k in broken:
                continue
            if gauge is not None:
                gauge.between_ops()
            attempted += 1
            t0 = time.perf_counter()
            try:
                raw = wl.run_op(case) if tracer is None else tracer.run_op(k, wl.run_op, case)
            except Exception as exc:  # a failed op is counted, not fatal
                busy += time.perf_counter() - t0
                broken.add(k)
                checker.fail(k, f"{type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            busy += elapsed
            latencies[k].append(elapsed)
            completed += 1
            checker.check(k, raw)
        now = time.perf_counter()
        if len(broken) == len(cases) or now + (now - last) - start > seconds:
            break
        last = now
    return Loop(latencies, attempted, completed, busy)


class Checker:
    """Checks every run of every op, keeping per op only the first run's
    digest and figures. Every run of an op must give the same report bytes.
    """

    def __init__(self, wl, cases: list):
        self.wl, self.cases = wl, cases
        self.digests: Dict[int, str] = {}
        self.figures: Dict[int, List[dict]] = {}
        self.failed = 0
        self.problems: List[str] = []

    def check(self, k: int, raw) -> None:
        checked = self.wl.check(self.cases[k], raw)
        digest = hashlib.sha256(checked.report).hexdigest()
        problems = list(checked.problems)
        if self.digests.setdefault(k, digest) != digest:
            problems.append("report differs from an earlier run of the same op")
        self.figures.setdefault(k, checked.figures)
        if problems:
            self.fail(k, "; ".join(problems))

    def fail(self, k: int, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"op {k}: {message}")

    def digest(self) -> str:
        """One digest over every op's report, in op order."""
        ops = "".join(self.digests.get(k, "") for k in range(len(self.cases)))
        return hashlib.sha256(ops.encode()).hexdigest()

    def quality(self) -> Dict[str, Optional[float]]:
        """Solution quality over the ops; exactly repeatable for a seed."""
        figures = [f for op in self.figures.values() for f in op]
        logs = [f["log_nsw"] for f in figures if f.get("log_nsw") is not None]
        shares = [f["log_share"] for f in figures if f.get("log_share") is not None]
        losses = [f["efx_loss"] for f in figures if "efx_loss" in f]
        ratios = [f["opt_ratio"] for f in figures if "opt_ratio" in f]
        return {
            "log_nsw_mean": statistics.fmean(logs) if logs else None,
            "nsw_share": math.exp(statistics.fmean(shares)) if shares else None,
            "feasible": len(logs),
            "efx_loss_max": max(losses) if losses else None,
            "opt_ratio_max": max(ratios) if ratios else None,
        }


def digest_repeats(name: str, seed: int, shape: Shape, ops: int, digest: str) -> bool:
    """False when an earlier run of the same code and inputs got another digest.

    Digests are kept in the checkout, keyed by the solver and benchmark
    sources, so a later commit never compares against an older one.
    """
    key = f"{sources_sha256(PACKAGE, HERE)}/{name}/{seed}/{shape}/{ops}"
    store = WORK / "digests.json"
    WORK.mkdir(exist_ok=True)
    try:
        known = json.loads(store.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    if known.setdefault(key, digest) != digest:
        return False
    partial = store.with_suffix(".tmp")
    partial.write_text(json.dumps(known, sort_keys=True), encoding="utf-8")
    os.replace(partial, store)
    return True


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def sources_sha256(*dirs: Path) -> str:
    tree = hashlib.sha256()
    for directory in dirs:
        for path in sorted(directory.glob("*.py")):
            tree.update(f"{directory.name}/{path.name}".encode() + b"\0" + path.read_bytes())
    return tree.hexdigest()


def environment(seed: int) -> dict:
    sloc = {
        path.stem: sum(
            1 for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.strip().startswith("#")
        )
        for path in sorted(PACKAGE.glob("*.py"))
    }
    numpy = sys.modules.get("numpy")
    return {
        "git_sha": git_sha(),
        "source_sha256": sources_sha256(PACKAGE),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": os.cpu_count(),
        "seed": seed,
        "sloc": sloc,
        "sloc_total": sum(sloc.values()),
    }


def git_sha() -> Optional[str]:
    """HEAD of the repository holding this file, or None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def run_untraced(name: str, seed: int, seconds: float, shape: Shape, smoke: bool) -> Tuple[dict, dict]:
    wl = WORKLOADS[name]
    tmp = workdir()
    try:
        cases, own_setup = setup(name, seed, shape, tmp)
        own_setup = (own_setup, spot_scale())
        checker = Checker(wl, cases)
        gauge = Gauge()
        loop = closed_loop(wl, cases, checker, seconds, gauge=gauge)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups = [own_setup] + setup_in_fresh_processes(name, seed, smoke, 1 if smoke else SETUP_REPEATS)

    digest = checker.digest()
    repeatable = digest_repeats(name, seed, shape, len(cases), digest)
    latencies = sorted(t for op in loop.latencies for t in op)
    runs = len(latencies)
    q = checker.quality()
    # Timings as measured, then scaled to the gauge's reference speed.
    measured = {
        "instances_per_s": loop.completed * wl.instances_per_op / loop.busy,
        "op_p50_s": statistics.median(latencies) if runs else 0.0,
        "op_tail_s": latencies[runs - 11] if runs >= 11 else None,
    }
    scale = gauge.scale()
    detail = {
        "ops": len(cases),
        "executions": loop.attempted,
        "busy_s": loop.busy,
        "failed_ratio": checker.failed / loop.attempted,
        "measured": measured,
        "op_latencies_s": loop.latencies,
        "op_tail_s": measured["op_tail_s"] * scale if runs >= 11 else None,
        "op_tail_percentile": 100.0 * (runs - 10) / runs if runs >= 11 else None,
        "setup_samples_s": [t for t, _ in setups],
        "setup_scales": [k for _, k in setups],
        "gauge_median_s": gauge.median(),
        "gauge_samples": len(gauge.samples),
        "gauge_scale": scale,
        "quality": q,
        "digest": digest,
        "digest_repeats": repeatable,
        "problems": checker.problems,
    }
    metrics = {
        "instances_per_s": (measured["instances_per_s"] / scale, "1/s"),
        "op_p50_s": (measured["op_p50_s"] * scale, "s"),
        "nsw_share": (q["nsw_share"] or 0.0, "ratio"),
        "setup_s": (statistics.median(t * k for t, k in setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    result = {
        "correct": checker.failed == 0 and repeatable,
        "attempted": loop.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def run_traced(name: str, seed: int, shape: Shape) -> Tuple[dict, dict]:
    """Four passes over the op list: warm-up, untraced, spans, value() counts.

    The first pass of a process runs cold, so the untraced pass that
    ``trace.overhead`` compares against comes second.
    """
    wl = WORKLOADS[name]
    at_setup, timing, counting = spans.Tracer(), spans.Tracer(), spans.Tracer()
    totals = {"swaps": 0, "final_scan_triples": 0, "swap_budget_used": 0.0, "allocations": 0}
    tmp, tmp_traced = workdir(), workdir()
    loops = []
    try:
        cases, _ = setup(name, seed, shape, tmp)
        cases = cases[: shape.traced_ops]
        checker = Checker(wl, cases)
        try:
            at_setup.install()
            at_setup.run_op("setup", wl.make_cases, name, seed, shape, tmp_traced)
        finally:
            at_setup.uninstall()
        loops.append(closed_loop(wl, cases, checker, 0.0))
        loops.append(closed_loop(wl, cases, checker, 0.0))
        try:
            timing.install()
            loops.append(closed_loop(wl, cases, checker, 0.0, timing))
        finally:
            timing.uninstall()
        try:
            counting.install()
            counting.count_values()
            counting.add_probe("pipeline.solve_nsw", spans.solve_probe(totals))
            counting.add_probe("oracle.brute_force_opt", spans.oracle_probe(totals))
            loops.append(closed_loop(wl, cases, checker, 0.0, counting))
        finally:
            counting.uninstall()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(tmp_traced, ignore_errors=True)

    digest = checker.digest()
    repeatable = digest_repeats(name, seed, shape, len(cases), digest)
    busy_untraced, busy_traced = loops[1].busy, loops[2].busy
    metrics = spans.layer_metrics(at_setup, timing, counting, totals, busy_traced, busy_untraced)
    table = timing.summary()
    for row in table.values():
        row["self_share"] = row["self_s"] / busy_traced
    attempted = sum(loop.attempted for loop in loops)
    spans_file = WORK / f"spans-{name}-{seed}.json"
    spans_file.write_text(json.dumps({"setup": at_setup.spans, "ops": timing.spans}), encoding="utf-8")
    detail = {
        "ops": len(cases),
        "passes": len(loops),
        "busy_untraced_s": busy_untraced,
        "busy_traced_s": busy_traced,
        "failed_ratio": checker.failed / attempted,
        "quality": checker.quality(),
        "digest": digest,
        "digest_repeats": repeatable,
        "missing_hooks": sorted(set(timing.missing + counting.missing)),
        "spans": sorted(([k, v] for k, v in table.items()), key=lambda kv: -kv[1]["self_s"]),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "setup_spans": at_setup.summary(),
        "value_calls_by_span": dict((counting.value_calls or {}).most_common()),
        "problems": checker.problems,
    }
    result = {
        "correct": checker.failed == 0 and repeatable,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def smoke() -> int:
    """Every workload, untraced and traced, on tiny shapes; 0 when all pass."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    want = {
        0: {m["name"] for m in contract["end_to_end"]},
        1: {m["name"] for m in contract["per_layer"]},
    }
    errors = []
    for w in contract["workloads"]:
        name, shape = w["name"], SMOKE_SHAPES[w["name"]]
        plain, plain_detail = run_untraced(name, 7, 0.2, shape, smoke=True)
        traced, traced_detail = run_traced(name, 7, shape)
        for trace, (result, detail) in enumerate(((plain, plain_detail), (traced, traced_detail))):
            if not result["correct"]:
                errors.append(f"{name} trace={trace}: {detail['problems']}")
            if set(result["metrics"]) != want[trace]:
                errors.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(result['metrics']) ^ want[trace])}")
        if traced_detail["missing_hooks"]:
            errors.append(f"{name}: missing hooks {traced_detail['missing_hooks']}")
        if plain_detail["digest"] != traced_detail["digest"]:
            errors.append(f"{name}: traced and untraced reports differ")
        print(f"{name}: {plain['attempted']} runs untraced, {traced['attempted']} traced", file=sys.stderr)
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print("smoke ok" if not errors else f"smoke failed: {len(errors)} problems")
    return 1 if errors else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, every workload, then exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no nswfair package at {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
        return 2
    if args.smoke and not args.setup_probe:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    shape = (SMOKE_SHAPES if args.smoke else SHAPES)[args.workload]
    if args.setup_probe:
        tmp = workdir()
        try:
            _, elapsed = setup(args.workload, args.seed, shape, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        print(repr(elapsed), repr(spot_scale()))
        return 0
    if args.trace:
        result, detail = run_traced(args.workload, args.seed, shape)
    else:
        result, detail = run_untraced(args.workload, args.seed, args.seconds, shape, smoke=False)
    detail = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": environment(args.seed), **detail}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
