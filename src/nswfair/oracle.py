"""Exact optimum by exhaustive enumeration, for ratio checks at desk scale.

Instances with n^m > SIZE_GUARD = 10^8 are refused before any work starts.
The search then runs in two steps.

1. **Tables.** For every agent i, ``L_i[mask] = welfare_term(w_i, v_i(S))``,
   that is w_i * log v_i(S) or -inf when v_i(S) <= 0, where bit t of mask
   selects item t. :func:`~nswfair.valuations.subset_values` gives the
   values: the four generator families in closed form, whole-array sums with
   no ``value()`` call and no Python step per subset; a table or a user
   valuation by walking one bundle state through the subsets in Gray-code
   order. :func:`~nswfair.instance.welfare_terms` then maps them in place,
   ``BLOCK`` entries at a time, so no list or index array of all 2^m entries
   is built. The tables take n * 2^m float64: 1 GiB at the largest size the
   guard allows with tables, n = 2 and m = 26. With one agent there is one
   allocation, scored by :func:`~nswfair.instance.nsw_log`.
2. **Enumeration.** Every complete allocation is a base-n counter over the m
   items, item 0 the most significant digit, taken in lexicographic order. A
   Python loop runs over the assignments of the leading items; one numpy
   block covers all assignments of the trailing k items, k the largest with
   n^k <= 2^16; its per-agent masks of the trailing items are broadcast one
   digit at a time, most significant first, kept for the next instance of
   the same shape, then ORed with the prefix's. Each block's log NSW is the
   left fold ``0.0 + L_0[mask_0] + L_1[mask_1] + ...`` in agent order, the
   additions :func:`~nswfair.instance.nsw_log` makes, so the optimum is the
   same float bit for bit.

Ties go to the lexicographically smallest allocation: ``np.argmax`` returns
the first maximum within a block, and a later block replaces the best only
when strictly greater.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardExceeded
from .instance import NEG_INF, Allocation, Instance, nsw_log, validate, welfare_terms
from .valuations import subset_values

__all__ = ["SIZE_GUARD", "OptResult", "brute_force_opt", "ratio_of_logs"]

SIZE_GUARD = 10**8
BLOCK = 2**16  # most allocations scored in one numpy block


@dataclass(frozen=True)
class OptResult:
    opt_log: float
    argmax: Allocation
    enumerated: int


def _log_table(inst: Instance, i: int) -> np.ndarray:
    """L_i[mask] = w_i * log v_i(S), or -inf when v_i(S) <= 0, mapped in place ``BLOCK`` entries at a time."""
    weight, table = inst.weight_floats[i : i + 1], subset_values(inst.valuations[i], inst.items)
    for start in range(0, table.size, BLOCK):
        table[start : start + BLOCK] = welfare_terms(weight, table[None, start : start + BLOCK])[0]
    return table


@functools.lru_cache(maxsize=1)
def _owner_masks(n: int, m: int, k: int) -> np.ndarray:
    """[i, b]: the mask of the trailing k of m items that block position b gives agent i, digit t
    of b from the right owning item m - 1 - t. Appending digit d maps b to b * n + d. The last
    shape's array is kept, read-only, for the next call of a batch of one shape."""
    suffix = np.zeros((n, 1), dtype=np.int64)
    owns = np.arange(n)[:, None] == np.arange(n)
    for t in range(k - 1, -1, -1):
        suffix = (suffix[:, :, None] + owns[:, None, :] * np.int64(1 << (m - 1 - t))).reshape(n, -1)
    suffix.flags.writeable = False
    return suffix


def brute_force_opt(inst: Instance) -> OptResult:
    """Maximize nsw_log over all n^m complete allocations."""
    problems = validate(inst)
    if problems:
        raise ValueError("; ".join(problems))
    n, m = inst.n, inst.m
    total = n**m
    if total > SIZE_GUARD:
        raise SizeGuardExceeded(f"{n}^{m} = {total} allocations exceed the guard {SIZE_GUARD}")
    if n == 1:
        argmax = Allocation.of({inst.agents[0]: inst.items})
        return OptResult(nsw_log(inst, argmax), argmax, total)
    tables = [_log_table(inst, i) for i in range(n)]
    k = 0
    while k < m and n ** (k + 1) <= BLOCK:
        k += 1
    lead, size = m - k, n**k
    suffix = _owner_masks(n, m, k)
    best_log, best = NEG_INF, None
    for prefix in itertools.product(range(n), repeat=lead):
        masks = [0] * n
        for j, owner in enumerate(prefix):
            masks[owner] |= 1 << j
        logs = np.zeros(size)
        for table, mask, tail in zip(tables, masks, suffix):
            logs += table[tail | mask]
        b = int(np.argmax(logs))
        if best is None or logs[b] > best_log:
            best_log, best = float(logs[b]), prefix + tuple(b // n**t % n for t in range(k - 1, -1, -1))
    bundles = [[] for _ in range(n)]
    for j, owner in enumerate(best):
        bundles[owner].append(inst.items[j])
    argmax = Allocation.of({inst.agents[i]: bundles[i] for i in range(n)})
    return OptResult(opt_log=best_log, argmax=argmax, enumerated=total)


def ratio_of_logs(opt_log: float, alloc_log: float) -> float:
    """exp(opt - alloc); 1 when both are -inf, +inf when only the candidate is."""
    if opt_log == NEG_INF and alloc_log == NEG_INF:
        return 1.0
    if alloc_log == NEG_INF:
        return float("inf")
    return math.exp(opt_log - alloc_log)
