"""The unpruned packing, kept as a reference for ``solve_assignment``.

It passes every finite cell of the table to ``_max_weight_matching``, with
the same head, packing and float total as the solver, but
without keeping only each row's n best cells first. ``tests/test_matching.py``
checks that the pruned solver returns the same assignment and the same total,
bit for bit.
"""

from typing import Sequence

from nswfair.instance import NEG_INF
from nswfair.matching import AssignmentResult, _max_weight_matching
from nswfair.valuations import exact_ints


def reference_assignment(scores: Sequence[Sequence[float]]) -> AssignmentResult:
    """Best matching of rows to columns, every finite cell packed."""
    n = len(scores)
    m = len(scores[0]) if n else 0
    if any(len(row) != m for row in scores):
        raise ValueError("score table rows must have equal length")
    ints, _ = exact_ints(
        {(r, c): float(s) for r, row in enumerate(scores) for c, s in enumerate(row) if s != NEG_INF}
    )
    head = 2 * n * max(map(abs, ints.values()), default=0) + 1
    assignment = _max_weight_matching(n, m, {cell: head + s for cell, s in ints.items()})
    if None in assignment:
        return AssignmentResult(tuple(assignment), NEG_INF)
    total = sum((scores[r][c] for r, c in enumerate(assignment)), 0.0)
    return AssignmentResult(tuple(assignment), total)
