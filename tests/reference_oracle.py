"""The per-allocation enumeration loop, kept as a reference for ``brute_force_opt``.

It rebuilds and evaluates every bundle of every one of the n^m allocations,
in lexicographic order, keeping the first allocation that is strictly better
than all before it. ``tests/test_oracle.py`` checks that the table-based
oracle returns the same float bit for bit, the same argmax and the same count.
"""

import itertools
import math
from typing import Tuple

from nswfair.errors import SizeGuardExceeded
from nswfair.instance import NEG_INF, Allocation, Instance, validate
from nswfair.oracle import SIZE_GUARD, OptResult


def reference_opt(inst: Instance) -> OptResult:
    """Maximize nsw_log over all n^m complete allocations, one allocation at a time."""
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
