"""Command-line interface.

Subcommands: gen, solve, efx, exact, experiment, verify. Exit codes: 0 on
success, 1 on usage or input errors, 2 when a certified property fails on
concrete data (a solver bug, never the input's fault).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .efx import guarantee_half_efx, half_efx_check
from .errors import InvariantViolation, LemmaViolation, SizeGuardExceeded
from .generate import FAMILIES, WEIGHT_MODES, random_instance
from .instance import (
    Allocation,
    Instance,
    allocation_to_json,
    canonical_json,
    instance_to_json,
    load_allocation,
    load_instance,
    nsw_log,
    save_instance,
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
    return "-inf" if x == float("-inf") else f"{x:.6f}"


def _load_checked(path: str) -> Instance:
    try:
        inst = load_instance(path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read instance {path}: {exc}") from exc
    problems = validate(inst)
    if problems:
        raise CliError(f"invalid instance {path}: " + "; ".join(problems))
    return inst


def _write_text(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_trace(path: str, report: SolveReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "giver", "item", "taker", "log_gain"])
        if report.search is not None:
            for rec in report.search.trace:
                writer.writerow([rec.step, rec.giver, rec.item, rec.taker, repr(rec.log_gain)])


def cmd_gen(args) -> int:
    if args.n < 1:
        raise CliError("n must be at least 1")
    if args.m < 1:
        raise CliError("m must be at least 1")
    inst = random_instance(args.family, args.n, args.m, args.seed, args.weights)
    _write_text(args.out, canonical_json(instance_to_json(inst)))
    return 0


def cmd_solve(args) -> int:
    inst = _load_checked(args.instance)
    report = solve_nsw(inst, args.eps)
    doc = report.to_json()
    lines = [
        f"log_nsw: {_fmt(report.log_nsw)} (nsw {report.nsw():.6f})",
        f"swaps: {report.swaps} (limit {report.certificates.swap_limit:.3f})",
        f"guarantee: best factor {report.guarantee.best():.6f}",
    ]
    if report.certificates.local_opt_violations:
        raise LemmaViolation("local-search output failed its own exhaustive recheck")
    opt_log = None
    if args.exact:
        opt = brute_force_opt(inst)
        opt_log = opt.opt_log
        r = ratio_of_logs(opt_log, report.log_nsw)
        doc["exact"] = {"opt_log_nsw": _fmt(opt_log), "ratio": r}
        lines.append(f"exact: opt log_nsw {_fmt(opt_log)}, ratio {r:.6f}")
        if args.verify and math.isfinite(opt_log):
            bound = report.guarantee.best()
            if r > bound + 1e-9:
                raise LemmaViolation(f"ratio {r} exceeds the guaranteed factor {bound}")
    if args.efx:
        fair = guarantee_half_efx(inst, report.allocation)
        fails = half_efx_check(inst, fair)
        doc["efx"] = {
            "allocation": {a: inst.sort_items(b) for a, b in sorted(fair.bundles.items())},
            "log_nsw": _fmt(nsw_log(inst, fair)),
            "half_efx": not fails,
        }
        lines.append(f"efx: half-efx {'ok' if not fails else 'FAILED'}, log_nsw {_fmt(nsw_log(inst, fair))}")
        if fails:
            raise LemmaViolation("fairness pipeline delivered a non-half-EFX allocation")
    if args.trace:
        _write_trace(args.trace, report)
    if args.out:
        _write_text(args.out, canonical_json(doc))
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
    if args.out:
        _write_text(args.out, canonical_json(doc))
    print(f"opt log_nsw: {_fmt(opt.opt_log)} over {opt.enumerated} allocations")
    return 0


def cmd_efx(args) -> int:
    inst = _load_checked(args.instance)
    if args.allocation:
        try:
            start = load_allocation(args.allocation)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read allocation {args.allocation}: {exc}") from exc
    else:
        start = solve_nsw(inst, args.eps).allocation
    before = nsw_log(inst, start)
    fair = guarantee_half_efx(inst, start)
    fails = half_efx_check(inst, fair)
    if fails:
        raise LemmaViolation("fairness pipeline delivered a non-half-EFX allocation")
    doc = allocation_to_json(inst, fair)
    if args.out:
        _write_text(args.out, canonical_json(doc))
    print(
        f"half-efx ok; log_nsw {_fmt(before)} -> {_fmt(nsw_log(inst, fair))}"
        f" (floor {_fmt(before - math.log(2.0))})"
    )
    return 0


def cmd_verify(args) -> int:
    inst = _load_checked(args.instance)
    report = solve_nsw(inst, args.eps)
    checks = []
    checks.append(("local optimum recheck", not report.certificates.local_opt_violations))
    checks.append(("asymmetric spending caps", report.certificates.spending_asymmetric is not None))
    checks.append(("symmetric spending caps", report.certificates.spending_symmetric is not None))
    checks.append(("swap budget", report.swaps <= report.certificates.swap_limit))
    if args.exact:
        opt = brute_force_opt(inst)
        r = ratio_of_logs(opt.opt_log, report.log_nsw)
        bound = report.guarantee.best()
        checks.append((f"ratio {r:.4f} within factor {bound:.4f}", r <= bound + 1e-9 or not math.isfinite(opt.opt_log)))
    if args.efx:
        fair = guarantee_half_efx(inst, report.allocation)
        ok = not half_efx_check(inst, fair) and fair.is_complete(inst)
        floor = report.log_nsw - math.log(2.0)
        checks.append(("half-efx completion", ok and nsw_log(inst, fair) >= floor - 1e-9))
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if failed:
        raise LemmaViolation("verification failed: " + "; ".join(failed))
    return 0


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

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        families = list(doc.get("families", FAMILIES))
        bad = [f for f in families if f not in FAMILIES]
        if bad:
            raise CliError(f"unknown families {bad}")
        mode = doc.get("weight_mode", "symmetric")
        if mode not in WEIGHT_MODES:
            raise CliError(f"weight_mode must be one of {WEIGHT_MODES}")
        return cls(
            families=families,
            n_values=[int(x) for x in doc.get("n", [2, 3])],
            m_values=[int(x) for x in doc.get("m", [4, 5, 6, 7])],
            weight_mode=mode,
            eps=float(doc.get("eps", 0.1)),
            trials=int(doc.get("trials", 3)),
            seed=int(doc.get("seed", 0)),
            exact=bool(doc.get("exact", True)),
            efx=bool(doc.get("efx", True)),
            verify=bool(doc.get("verify", False)),
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
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read experiment config {args.config}: {exc}") from exc
    rows: List[List[str]] = []
    max_ratio: dict[str, float] = {}
    for family in config.families:
        for n in config.n_values:
            for m in config.m_values:
                for trial in range(config.trials):
                    seed = config.seed + trial
                    name = f"{family}-n{n}-m{m}-s{seed}"
                    inst = random_instance(family, n, m, seed, config.weight_mode)
                    report = solve_nsw(inst, config.eps)
                    bound = report.guarantee.best()
                    opt_log = r = None
                    if config.exact:
                        try:
                            opt_log = brute_force_opt(inst).opt_log
                        except SizeGuardExceeded as exc:
                            print(f"warning: skipping {name}: {exc}", file=sys.stderr)
                            continue
                        r = ratio_of_logs(opt_log, report.log_nsw)
                        if math.isfinite(opt_log):
                            max_ratio[family] = max(max_ratio.get(family, 1.0), r)
                            if config.verify and r > bound + 1e-9:
                                raise LemmaViolation(
                                    f"instance {name}: ratio {r} exceeds factor {bound}"
                                )
                    efx_pass = ""
                    if config.efx:
                        fair = guarantee_half_efx(inst, report.allocation)
                        efx_pass = "yes" if not half_efx_check(inst, fair) else "no"
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
                            f"{bound:.6f}",
                            str(report.swaps),
                            efx_pass,
                        ]
                    )
    for family in config.families:
        if family in max_ratio:
            rows.append([f"max_ratio[{family}]", "", "", family, "", "", "", f"{max_ratio[family]:.6f}", "", "", ""])
    out = args.out
    lines = [",".join(EXPERIMENT_COLUMNS)] + [",".join(row) for row in rows]
    _write_text(out, "\n".join(lines) + "\n")
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
    p.add_argument("--verify", action="store_true", help="treat any failed certificate as an error")
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SizeGuardExceeded, ValueError) as exc:
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
