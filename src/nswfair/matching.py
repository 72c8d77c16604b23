"""Exact max-weight bipartite matching in the log domain.

Absent edges stand for score -inf and are simply not represented; no large
negative sentinels appear anywhere. One engine serves every caller: shortest
augmenting paths with row and column potentials, one Dijkstra-form
augmentation per row (Jonker & Volgenant 1987; Crouse 2016), over exact
Python int weights. Every row owns a private zero-weight dummy column, so
"leave the row unmatched" is always feasible.

Callers pack their whole objective into one int per edge. A finite float is
a dyadic rational, so multiplying every score by the largest denominator
among them turns each into an exact int. With radix B = (m + 1)^n, the
weight head + score * B + preference orders matchings by cardinality, then
total score, then index preference: a preference sum lies in [0, B), and
head exceeds the largest possible spread of score * B + preference between
two matchings of at most n edges. No path sum ever rounds, which matters:
summing floats along alternating paths makes (a - b) + b differ from a in
the last bit, and the resulting phantom "improvements" around zero-gain
cycles corrupt the search.

The preference digit of row r is m - c in base m + 1 (0 when unmatched), so
distinct matchings have distinct preference sums and the optimum is unique:
among equal-score matchings the agent with the smallest index gets the
smallest feasible column, and so on down. Any exact algorithm therefore
returns the same matching.

Before packing, :func:`solve_assignment` keeps only each row's n best finite
cells, n the number of rows, ranked by higher score, then smaller column.
That is exactly the order of the row's packed weights: head and the row's
preference multiplier are common to the row, float comparison is exact, and
the packed scores are the floats scaled by one common power of two. The
optimum never uses a dropped cell. Suppose it matched row r to a column
outside r's top n. The other n - 1 rows hold at most n - 1 of those n
columns, so one is free, and moving r there keeps the cardinality and raises
the score, or keeps the score and takes a smaller column, which raises the
preference. That contradicts optimality. The argument never asks that every
row be matched, so it holds for non-covering tables too. At most n^2 cells
are packed whatever m is, where each Dijkstra pop would otherwise relax m
weights of about n * log2(m + 1) bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import InfeasibleMatching, InvariantViolation, LemmaViolation
from .instance import NEG_INF, float_total
from .valuations import exact_ints

__all__ = ["NEG_INF", "AssignmentResult", "solve_assignment", "solve_lex_assignment"]


@dataclass(frozen=True)
class AssignmentResult:
    """Row -> column matching (None marks an unmatched row) and its total score."""

    assignment: Tuple[Optional[int], ...]
    total: float


def _lex_preference(row: int, col: int, n_rows: int, n_cols: int) -> int:
    # Positional bonus: earlier rows dominate, smaller columns score higher.
    return (n_cols + 1) ** (n_rows - 1 - row) * (n_cols - col)


def _max_weight_matching(
    n_rows: int, n_cols: int, weights: Mapping[Tuple[int, int], int]
) -> List[Optional[int]]:
    """Matching of maximum total int weight; row r may take dummy column n_cols + r."""
    cost: List[Dict[int, int]] = [{n_cols + r: 0} for r in range(n_rows)]
    for (r, c), w in weights.items():
        cost[r][c] = -w
    u = [0] * n_rows
    v = [0] * (n_cols + n_rows)
    row_of: Dict[int, int] = {}
    col_of: List[int] = [-1] * n_rows
    for r0 in range(n_rows):
        # Dijkstra from r0. Edges of earlier rows have reduced cost >= 0 and r0's
        # own edges are relaxed first, so a popped column's distance is final.
        # r0's dummy column is free, so a free column is always reached.
        dist: Dict[int, int] = {}
        pred: Dict[int, int] = {}
        done: Dict[int, int] = {}
        row, base = r0, 0
        while True:
            for c, w in cost[row].items():
                if c not in done:
                    d = base + w - u[row] - v[c]
                    if c not in dist or d < dist[c]:
                        dist[c] = d
                        pred[c] = row
            col = min(dist, key=dist.__getitem__)
            base = done[col] = dist.pop(col)
            if col not in row_of:
                break
            row = row_of[col]
        # Shift potentials so reduced costs stay >= 0 and the new path is tight.
        u[r0] += base
        for c, d in done.items():
            if c in row_of:
                u[row_of[c]] += base - d
            v[c] -= base - d
        walked: Set[int] = set()
        while True:
            if col in walked:
                raise InvariantViolation("augmenting-path walk revisited a column")
            walked.add(col)
            row = pred[col]
            row_of[col] = row
            col, col_of[row] = col_of[row], col
            if row == r0:
                break
    return [c if c < n_cols else None for c in col_of]


def solve_assignment(scores: Sequence[Sequence[float]]) -> AssignmentResult:
    """Best matching of rows to columns under ``scores`` (``-inf`` = no edge).

    Covers every row when a finite-score row-covering matching exists and
    otherwise returns the maximum-cardinality finite matching with
    ``total = -inf``; more rows than columns is rejected outright, and so is
    a ``nan`` or ``+inf`` score (:class:`ValueError` naming its cell).
    """
    n = len(scores)
    m = len(scores[0]) if n else 0
    if any(len(row) != m for row in scores):
        raise ValueError("score table rows must have equal length")
    if n > m:
        raise InfeasibleMatching(f"{n} rows cannot all be matched into {m} columns")
    kept: Dict[Tuple[int, int], float] = {}
    for r, row in enumerate(scores):
        row = [float(s) for s in row]
        finite = [c for c, s in enumerate(row) if NEG_INF < s < math.inf]
        if len(finite) + row.count(NEG_INF) < m:
            c = next(c for c, s in enumerate(row) if not s < math.inf)
            raise ValueError(f"score at row {r}, column {c} is {row[c]!r}; expected a finite number or -inf")
        # The row's n best finite cells: higher score first and, the sort being stable, the
        # smaller column first on a tie, as the packed weights rank them.
        finite.sort(key=row.__getitem__, reverse=True)
        kept.update(((r, c), row[c]) for c in finite[:n])
    ints, _ = exact_ints(kept)
    radix = (m + 1) ** n
    head = (2 * n * max(map(abs, ints.values()), default=0) + 1) * radix + 1
    weights = {(r, c): head + s * radix + _lex_preference(r, c, n, m) for (r, c), s in ints.items()}
    assignment = _max_weight_matching(n, m, weights)
    if None in assignment:
        return AssignmentResult(tuple(assignment), NEG_INF)
    return AssignmentResult(tuple(assignment), float_total(scores[r][c] for r, c in enumerate(assignment)))


def solve_lex_assignment(
    n_rows: int, n_cols: int, edges: Set[Tuple[int, int]], must_match: Set[int]
) -> Tuple[Optional[int], ...]:
    """Matching that (a) covers ``must_match`` columns, (b) maximizes rows r
    kept on their own column r, (c) has maximum cardinality, in that order.

    The priority is realized with one integer weight per edge,
    A * [col in must_match] + B * [col = row] + 1 with B = n + 1
    and A = (n + 1) * (B * n + n + 1), which strictly separates the three
    tiers for any matching of at most n = ``n_rows`` edges; the index
    preference rides below them in radix (n_cols + 1)^n_rows. The caller must
    pass a graph in which covering ``must_match`` is feasible; the cover is
    re-checked and a failure raises :class:`LemmaViolation`.
    """
    b_weight = n_rows + 1
    a_weight = (n_rows + 1) * (b_weight * n_rows + n_rows + 1)
    radix = (n_cols + 1) ** n_rows
    weights = {}
    for r, c in edges:
        w = a_weight * (c in must_match) + b_weight * (r == c) + 1
        weights[(r, c)] = w * radix + _lex_preference(r, c, n_rows, n_cols)
    assignment = _max_weight_matching(n_rows, n_cols, weights)
    matched_cols = {c for c in assignment if c is not None}
    uncovered = set(must_match) - matched_cols
    if uncovered:
        raise LemmaViolation(
            f"columns {sorted(uncovered)} should be matchable but were left uncovered"
        )
    return tuple(assignment)
