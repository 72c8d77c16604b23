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
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .efx import guarantee_half_efx, half_efx_check
from .errors import InvariantViolation, LemmaViolation, SizeGuardExceeded
from .generate import FAMILIES, WEIGHT_MODES, random_instance
from .instance import (
    NEG_INF,
    Allocation,
    Instance,
    allocation_to_json,
    canonical_json,
    instance_to_json,
    load_allocation,
    load_instance,
    malformed,
    nsw_log,
    validate,
)
from .oracle import brute_force_opt, ratio_of_logs
from .pipeline import SolveReport, solve_nsw

__all__ = ["main", "entrypoint"]


class CliError(Exception):
    """Input or usage problem; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise CliError(message)


def _fmt(x: float) -> str:
    return "-inf" if x == NEG_INF else f"{x:.6f}"


def _load_checked(path: str) -> Instance:
    try:
        inst = load_instance(path)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read instance {path}: {exc}") from exc
    problems = validate(inst)
    if problems:
        raise CliError(f"invalid instance {path}: " + "; ".join(problems))
    return inst


def _write_files(*outputs: Tuple[Optional[str], str]) -> None:
    """Write each (path, text) whose path is set, all or nothing: each text goes to a staged
    file beside its path, and the staged files replace their paths only once all are written.
    An error names the path it could not write and leaves every path as it was."""
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


def _exact(inst: Instance, report: SolveReport) -> Tuple[float, float]:
    """The brute-force optimum's log NSW and the ratio of ``report`` to it."""
    opt_log = brute_force_opt(inst).opt_log
    return opt_log, ratio_of_logs(opt_log, report.log_nsw)


def _checks(report: SolveReport, exact: Optional[Tuple[float, float]] = None) -> Checks:
    """The one check list of a solve: (name, ok), ok None when no positive-welfare allocation
    exists. ``exact`` (from :func:`_exact`) adds the ratio; a 1/2-EFX output adds :func:`_fair_checks`."""
    certs = report.certificates
    checks = [
        ("local optimum recheck", not certs.local_opt_violations),
        ("asymmetric spending caps", certs.spending_asymmetric.within_caps() if report.feasible else None),
        ("symmetric spending caps", certs.spending_symmetric.within_caps() if report.feasible else None),
        ("swap budget", report.swaps <= certs.swap_limit),
    ]
    if exact is not None:
        opt_log, r = exact
        bound = report.guarantee.best()
        if math.isfinite(opt_log):
            checks.append((f"ratio {r:.4f} within factor {bound:.4f}", r <= bound + 1e-9))
        else:
            checks.append((f"ratio within factor {bound:.4f}", None))
    return checks


def _fair_checks(inst: Instance, fair: Allocation, fair_log: float, start_log: float) -> Checks:
    """The check list of a 1/2-EFX output ``fair`` of log NSW ``fair_log``,
    made from an allocation of log NSW ``start_log``."""
    return [
        ("half-efx", not half_efx_check(inst, fair)),
        ("efx completeness", fair.is_complete(inst)),
        ("efx welfare floor", fair_log >= start_log - math.log(2.0) - 1e-9),
    ]


def _require(checks: Checks, where: str) -> None:
    failed = [name for name, ok in checks if ok is False]
    if failed:
        raise LemmaViolation(f"{where}: failed " + "; ".join(failed))


def cmd_solve(args) -> int:
    inst = _load_checked(args.instance)
    report = solve_nsw(inst, args.eps)
    doc = report.to_json()
    lines = [
        f"log_nsw: {_fmt(report.log_nsw)} (nsw {report.nsw():.6f})",
        f"swaps: {report.swaps} (limit {report.certificates.swap_limit:.3f})",
        f"guarantee: best factor {report.guarantee.best():.6f}",
    ]
    exact = None
    if args.exact:
        opt_log, r = exact = _exact(inst, report)
        doc["exact"] = {"opt_log_nsw": _fmt(opt_log), "ratio": r}
        lines.append(f"exact: opt log_nsw {_fmt(opt_log)}, ratio {r:.6f}")
    checks = _checks(report, exact if args.verify else None)
    if args.efx:
        fair = guarantee_half_efx(inst, report.allocation)
        fair_log = nsw_log(inst, fair)
        checks += _fair_checks(inst, fair, fair_log, report.log_nsw)
        allocation = {a: inst.sort_items(b) for a, b in sorted(fair.bundles.items())}
        doc["efx"] = {"allocation": allocation, "log_nsw": _fmt(fair_log), "half_efx": True}
        lines.append(f"efx: half-efx ok, log_nsw {_fmt(fair_log)}")  # shown only if _require passes
    _require(checks, "solve")
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
        try:
            start = load_allocation(args.allocation)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read allocation {args.allocation}: {exc}") from exc
    else:
        start = solve_nsw(inst, args.eps).allocation
    before = nsw_log(inst, start)
    fair = guarantee_half_efx(inst, start)
    after = nsw_log(inst, fair)
    _require(_fair_checks(inst, fair, after, before), "efx")
    _write_files((args.out, canonical_json(allocation_to_json(inst, fair))))
    print(f"half-efx ok; log_nsw {_fmt(before)} -> {_fmt(after)} (floor {_fmt(before - math.log(2.0))})")
    return 0


def cmd_verify(args) -> int:
    inst = _load_checked(args.instance)
    report = solve_nsw(inst, args.eps)
    checks = _checks(report, _exact(inst, report) if args.exact else None)
    if args.efx:
        fair = guarantee_half_efx(inst, report.allocation)
        checks += _fair_checks(inst, fair, nsw_log(inst, fair), report.log_nsw)
    for name, ok in checks:
        if ok is None:
            print(f"SKIP  {name} (no positive-welfare allocation)")
        else:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
    _require(checks, "verify")
    return 0


_JSON_TYPES = {"integer": (int,), "number": (int, float), "boolean": (bool,), "array": (list,)}


def _json_typed(value, kind: str, what: str):
    """``value`` when its JSON type is ``kind``; ``type()`` keeps booleans from counting as numbers."""
    if type(value) not in _JSON_TYPES[kind]:
        raise CliError(f"{what} must be a JSON {kind}, got {value!r}")
    return value


@dataclass
class ExperimentConfig:
    families: List[str]
    n_values: List[int]
    m_values: List[int]
    weight_mode: str
    eps: float
    trials: int
    seed: int
    exact: bool
    efx: bool
    verify: bool

    KEYS = ("families", "n", "m", "weight_mode", "eps", "trials", "seed", "exact", "efx", "verify")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        with malformed("experiment config"):
            unknown = sorted(set(doc.keys()) - set(cls.KEYS))
            if unknown:
                raise CliError(f"unknown config keys {unknown}; known keys are {list(cls.KEYS)}")
            trials = _json_typed(doc.get("trials", 3), "integer", "trials")
            if trials < 0:
                raise CliError(f"trials must be nonnegative, got {trials}")
            families = _json_typed(doc.get("families", list(FAMILIES)), "array", "families")
            bad = [f for f in families if f not in FAMILIES]
            if bad:
                raise CliError(f"unknown families {bad}")
            sizes = {
                key: [_json_typed(x, "integer", key) for x in _json_typed(doc.get(key, default), "array", key)]
                for key, default in (("n", [2, 3]), ("m", [4, 5, 6, 7]))
            }
            mode = doc.get("weight_mode", "symmetric")
            if mode not in WEIGHT_MODES:
                raise CliError(f"weight_mode must be one of {WEIGHT_MODES}")
            return cls(
                families=families,
                n_values=sizes["n"],
                m_values=sizes["m"],
                weight_mode=mode,
                eps=float(_json_typed(doc.get("eps", 0.1), "number", "eps")),
                trials=trials,
                seed=_json_typed(doc.get("seed", 0), "integer", "seed"),
                exact=_json_typed(doc.get("exact", True), "boolean", "exact"),
                efx=_json_typed(doc.get("efx", True), "boolean", "efx"),
                verify=_json_typed(doc.get("verify", False), "boolean", "verify"),
            )


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
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = ExperimentConfig.from_dict(json.load(fh))
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read experiment config {args.config}: {exc}") from exc
    rows: List[List[str]] = []
    max_ratio: dict[str, float] = {}
    grid = itertools.product(config.families, config.n_values, config.m_values, range(config.trials))
    for family, n, m, trial in grid:
        seed = config.seed + trial
        name = f"{family}-n{n}-m{m}-s{seed}"
        inst = random_instance(family, n, m, seed, config.weight_mode)
        report = solve_nsw(inst, config.eps)
        exact = opt_log = r = None
        if config.exact:
            try:
                opt_log, r = exact = _exact(inst, report)
            except SizeGuardExceeded as exc:
                print(f"warning: skipping {name}: {exc}", file=sys.stderr)
                continue
            if math.isfinite(opt_log):
                max_ratio[family] = max(max_ratio.get(family, 1.0), r)
        checks = _checks(report, exact if config.verify else None)
        efx_pass = ""
        if config.efx and inst.is_symmetric():  # the 1/2-EFX stage needs equal weights
            fair = guarantee_half_efx(inst, report.allocation)
            fair_checks = _fair_checks(inst, fair, nsw_log(inst, fair), report.log_nsw)
            efx_pass = "yes" if fair_checks[0][1] else "no"
            checks += fair_checks if config.verify else []
        _require(checks, f"instance {name}")
        rows.append(
            [
                name,
                str(n),
                str(m),
                family,
                repr(config.eps),
                _fmt(report.log_nsw),
                "" if opt_log is None else _fmt(opt_log),
                "" if r is None else f"{r:.6f}",
                f"{report.guarantee.best():.6f}",
                str(report.swaps),
                efx_pass,
            ]
        )
    for family in config.families:
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
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--exact", action="store_true", help="also brute-force the optimum and report the ratio")
    p.add_argument("--efx", action="store_true", help="also run the fairness pipeline")
    p.add_argument("--verify", action="store_true", help="with --exact, also check the ratio against the guarantee factor")
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None, help="write the swap trace CSV here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("efx", help="make an allocation 1/2-EFX and complete")
    p.add_argument("instance")
    p.add_argument("--allocation", default=None, help="starting allocation file (default: solve first)")
    p.add_argument("--eps", type=float, default=0.1)
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
    p.add_argument("--eps", type=float, default=0.1)
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
