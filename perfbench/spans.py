"""Span tracing for the benchmark's traced run.

The tracer wraps public ``nswfair`` functions under the module attribute their
caller looks up (``nswfair.pipeline.local_search`` is what ``solve_nsw``
calls), records one span per call and keeps the spans in memory. A second,
separate pass counts ``Valuation.value`` calls and charges each one to the
innermost open span; that hook costs too much to share a pass with the
timings. Only calls made inside an op are recorded, so the benchmark's own
output checks between ops leave no trace.

Hooks fail soft: a module or attribute that no longer exists is reported as
missing and the layer metrics that need it are dropped, never guessed.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute the caller looks up, span name). The span name is the
# defining module and function, whichever namespace the call goes through.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("nswfair.pipeline", "solve_nsw", "pipeline.solve_nsw"),
    ("nswfair.cli", "solve_nsw", "pipeline.solve_nsw"),
    ("nswfair.pipeline", "validate", "instance.validate"),
    ("nswfair.oracle", "validate", "instance.validate"),
    ("nswfair.cli", "validate", "instance.validate"),
    ("nswfair.pipeline", "solve_assignment", "matching.solve_assignment"),
    ("nswfair.pipeline", "local_search", "local_search.local_search"),
    ("nswfair.pipeline", "complete_with_leftovers", "instance.complete_with_leftovers"),
    ("nswfair.pipeline", "verify_local_opt", "local_search.verify_local_opt"),
    ("nswfair.pipeline", "prices", "local_search.prices"),
    ("nswfair.pipeline", "check_spending", "local_search.check_spending"),
    ("nswfair.pipeline", "nsw_log", "instance.nsw_log"),
    ("nswfair.cli", "nsw_log", "instance.nsw_log"),
    ("nswfair.efx", "guarantee_half_efx", "efx.guarantee_half_efx"),
    ("nswfair.cli", "guarantee_half_efx", "efx.guarantee_half_efx"),
    ("nswfair.efx", "make_fair_or_efficient", "efx.make_fair_or_efficient"),
    ("nswfair.efx", "build_feasibility_graph", "efx.build_feasibility_graph"),
    ("nswfair.efx", "solve_lex_assignment", "matching.solve_lex_assignment"),
    ("nswfair.efx", "half_efx_check", "efx.half_efx_check"),
    ("nswfair.cli", "half_efx_check", "efx.half_efx_check"),
    ("nswfair.efx", "envy_cycle_complete", "efx.envy_cycle_complete"),
    ("nswfair.cli", "brute_force_opt", "oracle.brute_force_opt"),
    ("nswfair.cli", "load_instance", "instance.load_instance"),
    ("nswfair.cli", "canonical_json", "instance.canonical_json"),
    ("nswfair.cli", "main", "cli.main"),
    ("nswfair.generate", "random_instance", "generate.random_instance"),
    ("nswfair.instance", "save_instance", "instance.save_instance"),
)

OP_SPAN = "bench.op"
VALUE_HOOK = "valuations.Valuation.value"

# Which value() calls count towards which layer metric, by innermost span.
VALUE_GROUPS = {
    "local_search": ("local_search.local_search",),
    "certificates": ("local_search.verify_local_opt", "local_search.prices", "local_search.check_spending"),
    "efx": (
        "efx.guarantee_half_efx",
        "efx.make_fair_or_efficient",
        "efx.build_feasibility_graph",
        "efx.half_efx_check",
        "efx.envy_cycle_complete",
    ),
    "pipeline": ("pipeline.solve_nsw",),
    "oracle": ("oracle.brute_force_opt",),
}


class Tracer:
    """Spans of one traced pass, plus value() counts and result probes."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index, op id]
        self.stack: List[int] = []
        self.op: object = None  # the op running now, None between ops
        self.missing: List[str] = []
        self.installed: set = set()
        self.value_calls: Optional[Counter] = None
        self.probes: Dict[str, Callable[[object], None]] = {}
        self._undo: List[Tuple[object, str, object]] = []

    # -- hooks ---------------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in HOOKS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._undo.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span))
            self.installed.add(span)
        self.missing = sorted(set(self.missing))

    def count_values(self) -> None:
        """Count every Valuation.value call, keyed by the innermost span."""
        try:
            base = importlib.import_module("nswfair.valuations").Valuation
        except (ImportError, AttributeError):
            self.missing.append(VALUE_HOOK)
            return
        self.value_calls = Counter()
        stack, spans, counts = self.stack, self.spans, self.value_calls
        classes, todo = [], [base]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "value" in cls.__dict__:
                classes.append(cls)

        def counted(fn):
            def value(self_, bundle):
                if self.op is not None:
                    counts[spans[stack[-1]][0]] += 1
                return fn(self_, bundle)

            return value

        for cls in classes:
            fn = cls.__dict__["value"]
            self._undo.append((cls, "value", fn))
            setattr(cls, "value", counted(fn))
        self.installed.add(VALUE_HOOK)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name: str):
        spans, stack, probes = self.spans, self.stack, self.probes
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            probe = probes.get(name)
            if probe is not None:
                try:
                    probe(result)
                except AttributeError as exc:
                    del probes[name]
                    self.installed.discard(f"probe:{name}")
                    self.missing.append(f"probe:{name} ({exc})")
            return result

        traced.__wrapped__ = fn
        return traced

    def add_probe(self, span: str, probe: Callable[[object], None]) -> None:
        self.probes[span] = probe
        self.installed.add(f"probe:{span}")

    # -- per-op root span ----------------------------------------------------

    def run_op(self, op_id, fn, *args):
        self.op = op_id
        try:
            return self._wrap(fn, OP_SPAN)(*args)
        finally:
            self.op = None

    # -- summaries -----------------------------------------------------------

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, busy (span) and self (span minus children) seconds."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, dict] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child[index]
            row["busy_s"] += end - start
        return out

    def value_groups(self) -> Dict[str, int]:
        counts = self.value_calls or Counter()
        groups = {g: sum(counts[s] for s in names) for g, names in VALUE_GROUPS.items()}
        groups["total"] = sum(counts.values())
        return groups


def solve_probe(totals: Dict[str, float]) -> Callable[[object], None]:
    """Exact search counts from each SolveReport that solve_nsw returns."""

    def probe(report) -> None:
        totals["swaps"] += report.swaps
        if report.search is not None:
            totals["final_scan_triples"] += report.search.certificate.triples_checked
        limit = report.certificates.swap_limit
        if limit > 0:
            totals["swap_budget_used"] = max(totals["swap_budget_used"], report.swaps / limit)

    return probe


def oracle_probe(totals: Dict[str, float]) -> Callable[[object], None]:
    def probe(result) -> None:
        totals["allocations"] += result.enumerated

    return probe


BUSY = (
    "local_search.local_search",
    "local_search.verify_local_opt",
    "local_search.prices",
    "local_search.check_spending",
    "matching.solve_assignment",
    "matching.solve_lex_assignment",
    "oracle.brute_force_opt",
    "efx.guarantee_half_efx",
    "efx.half_efx_check",
    "pipeline.solve_nsw",
    "instance.validate",
    "instance.nsw_log",
    "instance.load_instance",
    "instance.canonical_json",
    "generate.random_instance",
)
CALLS = ("matching.solve_assignment", "matching.solve_lex_assignment")
SELF = ("pipeline.solve_nsw", "cli.main")
SHARE = ("local_search.local_search", "matching.solve_assignment", "oracle.brute_force_opt")


def layer_metrics(
    at_setup: Tracer,
    timing: Tracer,
    counting: Tracer,
    totals: Dict[str, float],
    wall_traced: float,
    wall_untraced: float,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer (value, unit); a metric whose hook or probe is missing is left out."""
    rows = {**at_setup.summary(), **timing.summary()}  # set-up and ops share no span name
    have = timing.installed | counting.installed
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out: Dict[str, Tuple[float, str]] = {}

    def put(name: str, needs: Tuple[str, ...], value, unit: str) -> None:
        if all(n in have for n in needs):
            out[name] = (value() if callable(value) else value, unit)

    for span in BUSY:
        put(f"{span}.busy_s", (span,), rows.get(span, empty)["busy_s"], "s")
    for span in CALLS:
        put(f"{span}.calls", (span,), rows.get(span, empty)["calls"], "count")
    for span in SELF:
        put(f"{span}.self_s", (span,), rows.get(span, empty)["self_s"], "s")
    for span in SHARE:
        put(f"{span}.self_share", (span,), rows.get(span, empty)["self_s"] / wall_traced, "fraction")

    groups = counting.value_groups()
    for group, spans in VALUE_GROUPS.items():
        put(f"valuations.value_calls.{group}", (VALUE_HOOK,) + spans, groups[group], "count")
    put("valuations.value_calls", (VALUE_HOOK,), groups["total"], "count")

    solve = ("pipeline.solve_nsw", "probe:pipeline.solve_nsw")
    put("local_search.swaps", solve, totals["swaps"], "count")
    put("local_search.final_scan_triples", solve, totals["final_scan_triples"], "count")
    put("local_search.swap_budget_used", solve, totals["swap_budget_used"], "fraction")
    put(
        "valuations.value_calls_per_swap",
        solve + (VALUE_HOOK, "local_search.local_search"),
        lambda: groups["local_search"] / totals["swaps"] if totals["swaps"] else 0.0,
        "calls/swap",
    )
    oracle = ("oracle.brute_force_opt", "probe:oracle.brute_force_opt")
    busy = rows.get("oracle.brute_force_opt", empty)["busy_s"]
    put("oracle.allocations", oracle, totals["allocations"], "count")
    put("oracle.allocations_per_s", oracle, lambda: totals["allocations"] / busy if busy else 0.0, "1/s")
    out["trace.overhead"] = (wall_traced / wall_untraced - 1.0, "fraction")
    return out
