"""Exact max-weight bipartite matching in the log domain.

Absent edges stand for score -inf and are simply not represented; no large
negative sentinels appear anywhere. One engine serves every caller: shortest
augmenting paths with row and column potentials, one Dijkstra-form
augmentation per row (Jonker & Volgenant 1987; Crouse 2016), over exact
Python int weights. Every row owns a private zero-weight dummy column, so
"leave the row unmatched" is always feasible.

Callers pass their objective as one int score per edge. A finite float is a
dyadic rational, so multiplying every score by the largest denominator among
them turns each into an exact int. The engine weighs an edge score * B +
preference, radix B = (m + 1)^n: distinct int score totals differ by at least
B in weight and a preference sum lies in [0, B), so matchings rank by total
score, then index preference, with no further term below the radix.
:func:`solve_assignment` passes head + score, head = 2n * max|score| + 1, which
exceeds the spread of score totals between two matchings of at most n edges,
so cardinality ranks first. No path sum ever rounds, which matters: summing
floats along alternating paths makes (a - b) + b differ from a in the last
bit, and the resulting phantom "improvements" around zero-gain cycles corrupt
the search.

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
weights of about n * log2(m + 1) bits. A table of at least
:data:`~nswfair.instance.SCREEN_MIN_CELLS` cells is ranked by one stable
``np.argsort`` of its negated scores, which puts -inf last and keeps the
smaller column first on a tie, like the row-by-row sort of smaller tables.

First, though, each row in index order takes its smallest free column among
those holding its largest finite score. If every row gets one, that matching
is returned unpacked: it is the engine's optimum. It matches all n rows, and
its total, the sum of the row maxima, bounds every matching's, so every
optimum puts each row on one of its own best columns. The preference then
gives row 0 its smallest such column that leaves the later rows a completion,
then row 1, and so on. The greedy gives each row its smallest best column the
earlier rows left free, and its own completion shows that column qualifies,
so by induction the two agree. Equal floats are equal exact ints, so ties
read alike. Any other table goes on to the pruning and the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from . import instance
from .errors import InvariantViolation, LemmaViolation
from .instance import NEG_INF, float_total
from .valuations import exact_ints

__all__ = ["AssignmentResult", "solve_assignment", "solve_lex_assignment"]

INF = math.inf  # a global name, quicker to read than the attribute math.inf in the per-cell row scan


@dataclass(frozen=True)
class AssignmentResult:
    """Row -> column matching (None marks an unmatched row) and its total score."""

    assignment: Tuple[Optional[int], ...]
    total: float


def _lex_preference(row: int, col: int, n_rows: int, n_cols: int) -> int:
    # Positional bonus: earlier rows dominate, smaller columns score higher.
    return (n_cols + 1) ** (n_rows - 1 - row) * (n_cols - col)


def _max_weight_matching(
    n_rows: int, n_cols: int, scores: Mapping[Tuple[int, int], int]
) -> List[Optional[int]]:
    """Matching of maximum total score * radix + preference; row r may take dummy column n_cols + r."""
    radix = (n_cols + 1) ** n_rows
    cost: List[Dict[int, int]] = [{n_cols + r: 0} for r in range(n_rows)]
    for (r, c), s in scores.items():
        cost[r][c] = -(s * radix + _lex_preference(r, c, n_rows, n_cols))
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
    ``total = -inf``, as for a table with more rows than columns; a ``nan`` or
    ``+inf`` score is rejected (:class:`ValueError` naming its cell).
    """
    n = len(scores)
    m = len(scores[0]) if n else 0
    if any(len(row) != m for row in scores):
        raise ValueError("score table rows must have equal length")
    ranked = (_ranked_rows if n * m < instance.SCREEN_MIN_CELLS else _ranked_array)(scores, n)
    # Each row in turn takes its smallest free best column; if all do, that is the optimum.
    # A row looks while fewer than n columns are taken, so its n best cells are enough.
    taken: Dict[int, None] = {}
    for cells in ranked:
        col = next((c for c, s in cells if s == cells[0][1] and c not in taken), None)
        if col is None:
            break
        taken[col] = None
    else:
        return AssignmentResult(tuple(taken), float_total(cells[0][1] for cells in ranked))
    kept = {(r, c): s for r, cells in enumerate(ranked) for c, s in cells}
    ints, _ = exact_ints(kept)
    head = 2 * n * max(map(abs, ints.values()), default=0) + 1
    assignment = _max_weight_matching(n, m, {cell: head + s for cell, s in ints.items()})
    if None in assignment:
        return AssignmentResult(tuple(assignment), NEG_INF)
    return AssignmentResult(tuple(assignment), float_total(kept[cell] for cell in enumerate(assignment)))


def _ranked_rows(scores: Sequence[Sequence[float]], n: int) -> List[List[Tuple[int, float]]]:
    """Each row's n best finite cells (column, score), best first, one row at a time."""
    ranked = []
    for r, row in enumerate(scores):
        row = list(map(float, row))
        finite = [c for c, s in enumerate(row) if NEG_INF < s < INF]
        if len(finite) + row.count(NEG_INF) < len(row):
            c = next(c for c, s in enumerate(row) if not s < INF)
            raise ValueError(f"score at row {r}, column {c} is {row[c]!r}; expected a finite number or -inf")
        # Higher score first and, the sort being stable, the smaller column first on a tie.
        finite.sort(key=row.__getitem__, reverse=True)
        ranked.append([(c, row[c]) for c in finite[:n]])
    return ranked


def _ranked_array(scores: Sequence[Sequence[float]], n: int) -> List[List[Tuple[int, float]]]:
    """:func:`_ranked_rows` of the whole table at once: one stable sort of the negated scores
    puts -inf last and keeps the smaller column first on a tie. A table with a nan or +inf
    cell goes to :func:`_ranked_rows`, which names the first."""
    table = np.asarray(scores, dtype=float)
    if not (table < INF).all():
        return _ranked_rows(scores, n)
    order = np.argsort(-table, axis=1, kind="stable")[:, :n]
    best = np.take_along_axis(table, order, axis=1)
    return [
        [(c, s) for c, s in zip(cols, row) if s > NEG_INF] for cols, row in zip(order.tolist(), best.tolist())
    ]


def solve_lex_assignment(
    n_rows: int, n_cols: int, edges: Set[Tuple[int, int]], must_match: Set[int]
) -> Tuple[Optional[int], ...]:
    """Matching that (a) covers ``must_match`` columns, (b) maximizes rows r
    kept on their own column r, (c) has maximum cardinality, in that order.

    The priority is realized with one integer weight per edge,
    A * [col in must_match] + B * [col = row] + 1 with B = n + 1
    and A = (n + 1) * (B * n + n + 1), which strictly separates the three
    tiers for any matching of at most n = ``n_rows`` edges; the engine packs
    the index preference below them. The caller must
    pass a graph in which covering ``must_match`` is feasible; the cover is
    re-checked and a failure raises :class:`LemmaViolation`.
    """
    b_weight = n_rows + 1
    a_weight = (n_rows + 1) * (b_weight * n_rows + n_rows + 1)
    tiers = {(r, c): a_weight * (c in must_match) + b_weight * (r == c) + 1 for r, c in edges}
    assignment = _max_weight_matching(n_rows, n_cols, tiers)
    matched_cols = {c for c in assignment if c is not None}
    uncovered = set(must_match) - matched_cols
    if uncovered:
        raise LemmaViolation(
            f"columns {sorted(uncovered)} should be matchable but were left uncovered"
        )
    return tuple(assignment)
