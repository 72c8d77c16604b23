"""Command-line interface.

Subcommands: gen, solve, efx, exact, experiment, verify. Exit codes: 0 on
success, 1 on usage or input errors, 2 when a certified property fails on
concrete data (a solver bug, never the input's fault).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import math
import os
import sys
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .efx import guarantee_half_efx, half_efx_check
from .errors import InvariantViolation, LemmaViolation, SizeGuardExceeded
from .generate import FAMILIES, WEIGHT_MODES, random_instance
from .instance import (
    LOG2,
    NEG_INF,
    TOLERANCE,
    Allocation,
    Instance,
    allocation_to_json,
    canonical_json,
    instance_to_json,
    load_allocation,
    load_instance,
    malformed,
    nsw_log,
    read_json,
    validate,
)
from .oracle import brute_force_opt, ratio_of_logs
from .pipeline import SolveReport, solve_nsw
from .valuations import as_number

__all__ = ["main", "entrypoint"]


class CliError(Exception):
    """Input or usage problem; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise CliError(message)


def _fmt(x: float) -> str:
    return "-inf" if x == NEG_INF else f"{x:.6f}"


def _read(load, path: str, what: str):
    """``load(path)``; a file it cannot open or read is an input error that names ``what`` and ``path``."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc


def _load_checked(path: str) -> Instance:
    inst = _read(load_instance, path, "instance")
    problems = validate(inst)
    if problems:
        raise CliError(f"invalid instance {path}: " + "; ".join(problems))
    return inst


def _write_files(*outputs: Tuple[Optional[str], str]) -> None:
    """Write each (path, text) whose path is set, all or nothing: each text goes to a staged
    file beside its path, and the staged files replace their paths only once all are written.
    An error names the path it could not write and leaves every path as it was; so do two paths
    that resolve to one file, of which only the last text would survive."""
    real = [os.path.realpath(path) for path, _ in outputs if path]
    if len(set(real)) < len(real):
        raise CliError(f"two outputs resolve to the same file {max(real, key=real.count)}")
    staged: List[Tuple[str, str]] = []
    try:
        for k, (path, text) in enumerate(outputs):
            if not path:
                continue
            head, tail = os.path.split(path)
            part = os.path.join(head, f".{tail}.{os.getpid()}-{k}.partial")
            staged.append((part, path))
            if os.path.isdir(path):  # os.replace cannot put a file there
                raise CliError(f"cannot write {path}: it is a directory")
            try:
                with open(part, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc
        for part, path in staged:
            os.replace(part, path)
    finally:
        for part, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)


def _write_or_print(path: Optional[str], text: str) -> None:
    if path:
        _write_files((path, text))
    else:
        sys.stdout.write(text)


def _trace_csv(report: SolveReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["iteration", "giver", "item", "taker", "log_gain"])
    if report.search is not None:
        for rec in report.search.trace:
            writer.writerow([rec.step, rec.giver, rec.item, rec.taker, repr(rec.log_gain)])
    return buf.getvalue()


def cmd_gen(args) -> int:
    if args.n < 1:
        raise CliError("n must be at least 1")
    if args.m < 1:
        raise CliError("m must be at least 1")
    inst = random_instance(args.family, args.n, args.m, args.seed, args.weights)
    _write_or_print(args.out, canonical_json(instance_to_json(inst)))
    return 0


Checks = List[Tuple[str, Optional[bool]]]

# The names of the solve's own checks, in :func:`_checks` order.
SOLVE_CHECKS = ("local optimum recheck", "asymmetric spending caps", "symmetric spending caps", "swap budget")


class _Run(NamedTuple):
    """A solve's ``report`` (None for a start allocation read from a file) and the start's log NSW;
    on request the optimum's log NSW with the ratio to it, and a 1/2-EFX output with its log NSW."""

    inst: Instance
    start_log: float
    report: Optional[SolveReport] = None
    opt_log: Optional[float] = None
    ratio: Optional[float] = None
    fair: Optional[Allocation] = None
    fair_log: Optional[float] = None


def _solve(inst: Instance, eps: float, exact: bool = False, efx: bool = False) -> _Run:
    """Solve ``inst``; with ``exact`` then brute-force the optimum, with ``efx`` then run the
    1/2-EFX stage on the solver's allocation."""
    report = solve_nsw(inst, eps)
    run = _Run(inst, report.log_nsw, report)
    if exact:
        opt_log = brute_force_opt(inst).opt_log
        run = run._replace(opt_log=opt_log, ratio=ratio_of_logs(opt_log, report.log_nsw))
    return _made_fair(run, report.allocation) if efx else run


def _made_fair(run: _Run, start: Allocation) -> _Run:
    fair = guarantee_half_efx(run.inst, start)
    return run._replace(fair=fair, fair_log=nsw_log(run.inst, fair))


def _checks(run: _Run, ratio: bool = True) -> Checks:
    """The one check list, (name, ok) with ok None when no positive-welfare allocation exists: the
    solve's four certificate entries, the ratio to the optimum when ``ratio`` is set and the optimum
    was computed, then the 1/2-EFX output's three entries, each part only if ``run`` holds it."""
    checks: Checks = []
    report = run.report
    if report is not None:
        certs = report.certificates
        spending = (certs.spending_asymmetric, certs.spending_symmetric)
        caps = [r.within_caps() for r in spending] if report.feasible else [None, None]
        checks += zip(SOLVE_CHECKS, [not certs.local_opt_violations, *caps, report.swaps <= certs.swap_limit])
    if ratio and run.opt_log is not None:
        bound, known = report.guarantee.best(), math.isfinite(run.opt_log)
        shown = f" {run.ratio:.4f}" if known else ""
        checks.append((f"ratio{shown} within factor {bound:.4f}", run.ratio <= bound + TOLERANCE if known else None))
    if run.fair is not None:
        checks += [
            ("half-efx", not half_efx_check(run.inst, run.fair)),
            ("efx completeness", run.fair.is_complete(run.inst)),
            ("efx welfare floor", run.fair_log >= run.start_log - LOG2 - TOLERANCE),
        ]
    return checks


def _require(checks: Checks, where: str) -> None:
    failed = [name for name, ok in checks if ok is False]
    if failed:
        raise LemmaViolation(f"{where}: failed " + "; ".join(failed))


def cmd_solve(args) -> int:
    inst = _load_checked(args.instance)
    run = _solve(inst, args.eps, args.exact, args.efx)
    report = run.report
    doc = report.to_json()
    lines = [
        f"log_nsw: {_fmt(report.log_nsw)} (nsw {report.nsw():.6f})",
        f"swaps: {report.swaps} (limit {report.certificates.swap_limit:.3f})",
        f"guarantee: best factor {report.guarantee.best():.6f}",
    ]
    if args.exact:
        doc["exact"] = {"opt_log_nsw": _fmt(run.opt_log), "ratio": run.ratio}
        lines.append(f"exact: opt log_nsw {_fmt(run.opt_log)}, ratio {run.ratio:.6f}")
    if args.efx:
        allocation = allocation_to_json(inst, run.fair)["bundles"]
        doc["efx"] = {"allocation": allocation, "log_nsw": _fmt(run.fair_log), "half_efx": True}
        lines.append(f"efx: half-efx ok, log_nsw {_fmt(run.fair_log)}")  # shown only if _require passes
    _require(_checks(run, ratio=args.verify), "solve")
    _write_files((args.trace, _trace_csv(report)), (args.out, canonical_json(doc)))
    print("\n".join(lines))
    return 0


def cmd_exact(args) -> int:
    inst = _load_checked(args.instance)
    opt = brute_force_opt(inst)
    doc = {
        "opt_log_nsw": _fmt(opt.opt_log),
        "argmax": allocation_to_json(inst, opt.argmax),
        "enumerated": opt.enumerated,
    }
    _write_files((args.out, canonical_json(doc)))
    print(f"opt log_nsw: {_fmt(opt.opt_log)} over {opt.enumerated} allocations")
    return 0


def cmd_efx(args) -> int:
    inst = _load_checked(args.instance)
    if args.allocation:
        start = _read(load_allocation, args.allocation, "allocation")
        run = _made_fair(_Run(inst, nsw_log(inst, start)), start)
    else:
        run = _solve(inst, args.eps, efx=True)
    _require(_checks(run), "efx")
    _write_files((args.out, canonical_json(allocation_to_json(inst, run.fair))))
    before, after = run.start_log, run.fair_log
    print(f"half-efx ok; log_nsw {_fmt(before)} -> {_fmt(after)} (floor {_fmt(before - LOG2)})")
    return 0


def cmd_verify(args) -> int:
    checks = _checks(_solve(_load_checked(args.instance), args.eps, args.exact, args.efx))
    for name, ok in checks:
        if ok is None:
            print(f"SKIP  {name} (no positive-welfare allocation)")
        else:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
    _require(checks, "verify")
    return 0


DEFAULT_EPS = 0.1

_JSON_TYPES = {"integer": (int,), "number": (int, float), "boolean": (bool,), "string": (str,), "array": (list,)}

# The experiment config schema: each key's JSON type and default.
EXPERIMENT_KEYS = {
    "families": ("array", list(FAMILIES)),
    "n": ("array", [2, 3]),
    "m": ("array", [4, 5, 6, 7]),
    "weight_mode": ("string", "symmetric"),
    "eps": ("number", DEFAULT_EPS),
    "trials": ("integer", 3),
    "seed": ("integer", 0),
    "exact": ("boolean", True),
    "efx": ("boolean", True),
    "verify": ("boolean", False),
}


def _json_typed(value, kind: str, what: str) -> None:
    """Raise unless ``value`` has JSON type ``kind``; ``type()`` keeps booleans from counting as numbers."""
    if type(value) not in _JSON_TYPES[kind]:
        raise CliError(f"{what} must be a JSON {kind}, got {value!r}")


def experiment_config(doc) -> dict:
    """Every key of :data:`EXPERIMENT_KEYS`, from ``doc`` or its default, checked; ``eps`` and
    ``trials`` read by :func:`as_number`."""
    with malformed("experiment config"):
        unknown = sorted(set(doc.keys()) - EXPERIMENT_KEYS.keys())
        if unknown:
            raise CliError(f"unknown config keys {unknown}; known keys are {list(EXPERIMENT_KEYS)}")
        config = {key: doc.get(key, default) for key, (_, default) in EXPERIMENT_KEYS.items()}
        # Before the type checks, so a weight_mode of any wrong type names the choices.
        if config["weight_mode"] not in WEIGHT_MODES:
            raise CliError(f"weight_mode must be one of {WEIGHT_MODES}")
        for key, (kind, _) in EXPERIMENT_KEYS.items():
            _json_typed(config[key], kind, key)
        for key in ("n", "m"):
            for x in config[key]:
                _json_typed(x, "integer", key)
        config["trials"] = int(as_number(config["trials"], "trials", integer=True))
        bad = [f for f in config["families"] if f not in FAMILIES]
        if bad:
            raise CliError(f"unknown families {bad}")
        config["eps"] = as_number(config["eps"], "eps")
        return config


EXPERIMENT_COLUMNS = [
    "instance",
    "n",
    "m",
    "family",
    "eps",
    "alg_log_nsw",
    "opt_log_nsw",
    "ratio",
    "bound",
    "swaps",
    "efx_pass",
]


def cmd_experiment(args) -> int:
    config = _read(lambda path: experiment_config(read_json(path)), args.config, "experiment config")
    rows: List[List[str]] = []
    max_ratio: dict[str, float] = {}
    sizes = itertools.product(config["families"], config["n"], config["m"])
    # Trials innermost and lazy: itertools.product would first build the whole range as a tuple.
    grid = ((*size, trial) for size in sizes for trial in range(config["trials"]))
    for family, n, m, trial in grid:
        seed = config["seed"] + trial
        name = f"{family}-n{n}-m{m}-s{seed}"
        inst = random_instance(family, n, m, seed, config["weight_mode"])
        try:  # the 1/2-EFX stage needs equal weights
            run = _solve(inst, config["eps"], config["exact"], config["efx"] and inst.is_symmetric())
        except SizeGuardExceeded as exc:
            print(f"warning: skipping {name}: {exc}", file=sys.stderr)
            continue
        report, opt_log, r = run.report, run.opt_log, run.ratio
        if opt_log is not None and math.isfinite(opt_log):
            max_ratio[family] = max(max_ratio.get(family, 1.0), r)
        checks = _checks(run, ratio=config["verify"])
        efx_pass = {None: "", True: "yes", False: "no"}[dict(checks).get("half-efx")]
        _require(checks if config["verify"] else [c for c in checks if c[0] in SOLVE_CHECKS], f"instance {name}")
        rows.append(
            [
                name,
                str(n),
                str(m),
                family,
                repr(config["eps"]),
                _fmt(report.log_nsw),
                "" if opt_log is None else _fmt(opt_log),
                "" if r is None else f"{r:.6f}",
                f"{report.guarantee.best():.6f}",
                str(report.swaps),
                efx_pass,
            ]
        )
    for family in config["families"]:
        if family in max_ratio:
            rows.append([f"max_ratio[{family}]", "", "", family, "", "", "", f"{max_ratio[family]:.6f}", "", "", ""])
    lines = [",".join(EXPERIMENT_COLUMNS)] + [",".join(row) for row in rows]
    _write_or_print(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nswfair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", choices=WEIGHT_MODES, default="symmetric")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run the approximate solver")
    p.add_argument("instance")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--exact", action="store_true", help="also brute-force the optimum and report the ratio")
    p.add_argument("--efx", action="store_true", help="also run the fairness pipeline")
    p.add_argument("--verify", action="store_true", help="with --exact, also check the ratio against the guarantee factor")
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None, help="write the swap trace CSV here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("efx", help="make an allocation 1/2-EFX and complete")
    p.add_argument("instance")
    p.add_argument("--allocation", default=None, help="starting allocation file (default: solve first)")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_efx)

    p = sub.add_parser("exact", help="brute-force the exact optimum")
    p.add_argument("instance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("experiment", help="run a batch from a JSON config and emit CSV")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify", help="solve and hard-check every certified property")
    p.add_argument("instance")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--efx", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, OSError, ValueError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LemmaViolation as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"solver bug: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
