"""Exact optimum by exhaustive enumeration, for ratio checks at desk scale.

Every complete allocation is a base-n counter over the m items, enumerated
in lexicographic order so the reported argmax is the lexicographically
smallest one. Instances with n^m > SIZE_GUARD = 10^8 are refused before any
enumeration starts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

from .errors import SizeGuardExceeded
from .instance import NEG_INF, Allocation, Instance, validate

__all__ = ["SIZE_GUARD", "OptResult", "brute_force_opt", "ratio_of_logs"]

SIZE_GUARD = 10**8


@dataclass(frozen=True)
class OptResult:
    opt_log: float
    argmax: Allocation
    enumerated: int


def brute_force_opt(inst: Instance) -> OptResult:
    """Maximize nsw_log over all n^m complete allocations."""
    problems = validate(inst)
    if problems:
        raise ValueError("; ".join(problems))
    n, m = inst.n, inst.m
    total = n**m
    if total > SIZE_GUARD:
        raise SizeGuardExceeded(f"{n}^{m} = {total} allocations exceed the guard {SIZE_GUARD}")
    weights = inst.weight_floats
    valuations = inst.valuations
    items = inst.items
    best_log = NEG_INF
    best_assign: Tuple[int, ...] | None = None
    for assign in itertools.product(range(n), repeat=m):
        bundles: list[list[str]] = [[] for _ in range(n)]
        for j, owner in enumerate(assign):
            bundles[owner].append(items[j])
        log_value = 0.0
        for i in range(n):
            val = valuations[i].value(bundles[i])
            if val <= 0.0:
                log_value = NEG_INF
                break
            log_value += weights[i] * math.log(val)
        if best_assign is None or log_value > best_log:
            best_log = log_value
            best_assign = assign
    bundles = [[] for _ in range(n)]
    for j, owner in enumerate(best_assign):
        bundles[owner].append(items[j])
    argmax = Allocation.of({inst.agents[i]: bundles[i] for i in range(n)})
    return OptResult(opt_log=best_log, argmax=argmax, enumerated=total)


def ratio_of_logs(opt_log: float, alloc_log: float) -> float:
    """exp(opt - alloc); 1 when both are -inf, +inf when only the candidate is."""
    if opt_log == NEG_INF and alloc_log == NEG_INF:
        return 1.0
    if alloc_log == NEG_INF:
        return float("inf")
    return math.exp(opt_log - alloc_log)

