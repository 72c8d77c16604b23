"""Exact matching solver against an exhaustive enumeration oracle and the unpruned packing."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from conftest import numpy_from
from reference_matching import reference_assignment

from nswfair import instance, matching
from nswfair.errors import LemmaViolation
from nswfair.generate import FAMILIES, WEIGHT_MODES, random_instance
from nswfair.instance import NEG_INF
from nswfair.matching import _lex_preference, solve_assignment, solve_lex_assignment


def enumerate_best(rows):
    """Independent argmax over every injective partial assignment.

    Keys are (cardinality, exact score sum, index preference); the score sum
    is a ``Fraction`` so ties and near-ties are decided without rounding.
    """
    n, m = len(rows), len(rows[0]) if rows else 0
    options = []
    for r in range(n):
        cols = [c for c in range(m) if rows[r][c] != NEG_INF]
        options.append(cols + [None])
    best_key, best = None, None
    for combo in itertools.product(*options):
        used = [c for c in combo if c is not None]
        if len(used) != len(set(used)):
            continue
        key = (
            len(used),
            sum(Fraction(rows[r][c]) for r, c in enumerate(combo) if c is not None),
            sum(_lex_preference(r, c, n, m) for r, c in enumerate(combo) if c is not None),
        )
        if best_key is None or key > best_key:
            best_key, best = key, combo
    return best, best_key


# SCREEN_MIN_CELLS for each ranking form: every table row by row, then every table as one array.
FORMS = (math.inf, 0)


def solve_both_forms(table):
    """``solve_assignment(table)`` ranked row by row and as one array, which agree bit for bit."""
    results = []
    for cells in FORMS:
        with numpy_from(cells):
            results.append(solve_assignment(table))
    rows, array = results
    assert rows.assignment == array.assignment
    assert type(rows.total) is type(array.total) is float and rows.total.hex() == array.total.hex()
    return array


def test_two_agent_log_table():
    # w_i * log v_i(j) scores for the additive pair used across the suite.
    half = 0.5
    table = [
        [half * math.log(4), 0.0, 0.0, 0.0],
        [0.0, half * math.log(3), 0.0, 0.0],
    ]
    oracle, key = enumerate_best(table)
    result = solve_both_forms(table)
    assert result.assignment == oracle == (0, 1)
    assert result.total == pytest.approx(0.5 * math.log(12), rel=1e-12)
    assert result.total == pytest.approx(float(key[1]), rel=1e-12)


def test_all_rows_required_but_uncoverable():
    result = solve_both_forms([[1.0, NEG_INF], [NEG_INF, NEG_INF]])
    assert result.assignment == (0, None)
    assert result.total == NEG_INF


def test_ragged_rows_rejected():
    for cells in FORMS:
        with numpy_from(cells), pytest.raises(ValueError, match="equal length"):
            solve_assignment([[1.0, 2.0], [3.0]])


def test_negative_scores_still_cover_every_row():
    result = solve_both_forms([[-1.0]])
    assert result.assignment == (0,)
    assert result.total == -1.0


def test_tie_break_is_index_lexicographic():
    assert solve_both_forms([[0.0, 0.0], [0.0, 0.0]]).assignment == (0, 1)
    # agent 0 keeps the smaller column even when swapping would tie
    assert solve_both_forms([[5.0, 5.0], [5.0, 5.0]]).assignment == (0, 1)


@pytest.mark.parametrize(
    "table, cell",
    [
        ([[math.nan, 1.0], [0.0, 2.0]], "row 0, column 0"),
        ([[0.0, 1.0], [math.inf, 2.0]], "row 1, column 0"),
        # one row keeps one cell, so the sort would drop these unseen
        ([[5.0, 4.0, math.nan]], "row 0, column 2"),
        ([[5.0, NEG_INF, math.inf]], "row 0, column 2"),
        # every row could take its own best column, yet the last row's bad cell is still named
        ([[1.0, 0.0, 0.0], [0.0, 2.0, math.nan]], "row 1, column 2"),
        ([[1.0, 0.0, 0.0], [0.0, 2.0, math.inf]], "row 1, column 2"),
        # several bad cells: the first in row-major order is named
        ([[0.0, math.inf, math.nan], [math.nan, 0.0, 0.0]], "row 0, column 1"),
    ],
)
def test_non_finite_scores_rejected(table, cell):
    # Both ranking forms name the same first bad cell in row-major order, in the same words.
    messages = []
    for cells in FORMS:
        with numpy_from(cells), pytest.raises(ValueError, match=cell) as error:
            solve_assignment(table)
        messages.append(str(error.value))
    assert messages[0] == messages[1]


@st.composite
def score_tables(draw, scores):
    """Tables of 1-3 rows and up to 4 columns; each cell is a score or absent."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 4))
    return [[draw(st.one_of(st.just(NEG_INF), scores)) for _ in range(m)] for _ in range(n)]


INTEGER_SCORES = st.integers(-3, 3).map(float)

# Dyadic values whose common denominator ranges from 1 to 2**1074: logs, 0.1
# (a long binary fraction), the smallest subnormal and huge magnitudes.
DYADIC_SCORES = st.one_of(
    st.sampled_from(
        [0.0, math.log(2), math.log(3), 0.5 * math.log(5), 0.1, -0.1, 5e-324, -5e-324, 1e300, -1e300]
    ),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
)


@st.composite
def tall_tables(draw, scores):
    """Tables of 2-5 rows and fewer columns, every cell a finite score."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, n - 1))
    return [[draw(scores) for _ in range(m)] for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([INTEGER_SCORES, DYADIC_SCORES]).flatmap(tall_tables))
@example([[1.0], [2.0]])
def test_more_rows_than_columns_leave_rows_unmatched(table):
    # The rows' dummy columns take the rows the table cannot cover: m rows are matched,
    # by the same pruning, packing and engine as a covering table, and the total is -inf.
    oracle, _ = enumerate_best(table)
    result = solve_both_forms(table)
    reference = reference_assignment(table)
    assert result.assignment == reference.assignment == oracle
    assert sum(c is not None for c in result.assignment) == len(table[0])
    assert result.total == reference.total == NEG_INF


@settings(max_examples=250, deadline=None)
@given(st.sampled_from([INTEGER_SCORES, DYADIC_SCORES]).flatmap(score_tables))
def test_required_matching_agrees_with_enumeration(table):
    oracle, _ = enumerate_best(table)
    result = solve_both_forms(table)
    assert result.assignment == oracle
    if any(c is None for c in oracle):
        assert result.total == NEG_INF
    else:
        # the total is the float sum of the chosen scores in row order
        assert result.total == sum(table[r][c] for r, c in enumerate(oracle))


def test_totals_agree_with_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(3)
    table = [
        [0.5 * math.log(rng.randint(1, 50)) if rng.random() < 0.9 else NEG_INF for _ in range(400)]
        for _ in range(40)
    ]
    rows, cols = optimize.linear_sum_assignment(table, maximize=True)
    expected = sum(table[r][c] for r, c in zip(rows, cols))
    result = solve_both_forms(table)
    assert None not in result.assignment
    assert result.total == pytest.approx(expected, rel=1e-9)


def test_lex_identity_when_everyone_prefers_self():
    edges = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}
    rho = solve_lex_assignment(3, 3, edges, must_match=set())
    assert rho == (0, 1, 2)
    # the tiers dominate the index preference: row 1 keeps its own column 1
    # although column 0 comes first
    assert solve_lex_assignment(2, 5, {(1, 0), (1, 1)}, set()) == (None, 1)


def test_lex_cover_forces_displacement():
    # Column 1 must be covered and only row 0 reaches it, so row 0 moves off
    # its preferred column and row 1 backfills.
    edges = {(0, 0), (0, 1), (1, 0)}
    rho = solve_lex_assignment(2, 2, edges, must_match={1})
    assert rho == (1, 0)


def test_lex_empty_graph():
    assert solve_lex_assignment(1, 2, set(), set()) == (None,)


def test_lex_uncoverable_column_raises():
    with pytest.raises(LemmaViolation):
        solve_lex_assignment(1, 2, {(0, 0)}, must_match={1})


def lex_oracle(n_rows, n_cols, edges, must_match):
    options = []
    for r in range(n_rows):
        cols = sorted(c for rr, c in edges if rr == r)
        options.append(cols + [None])
    best = None
    for combo in itertools.product(*options):
        used = [c for c in combo if c is not None]
        if len(used) != len(set(used)):
            continue
        key = (
            sum(1 for c in used if c in must_match),
            sum(1 for r, c in enumerate(combo) if c == r),
            len(used),
            sum(_lex_preference(r, c, n_rows, n_cols) for r, c in enumerate(combo) if c is not None),
        )
        if best is None or key > best[0]:
            best = (key, combo)
    return best


@st.composite
def lex_problems(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    all_pairs = [(r, c) for r in range(n) for c in range(m)]
    edges = set(draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))))
    must = set(draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m)))
    return n, m, edges, must


@settings(max_examples=150, deadline=None)
@given(lex_problems())
def test_lex_assignment_agrees_with_enumeration(problem):
    n, m, edges, must = problem
    key, combo = lex_oracle(n, m, edges, must)
    if key[0] < len(must):
        with pytest.raises(LemmaViolation):
            solve_lex_assignment(n, m, edges, must)
        return
    assert solve_lex_assignment(n, m, edges, must) == combo


def test_tie_heavy_totals_agree_with_scipy():
    # Larger than the enumeration tables above: paths through several matched
    # rows exercise the potential updates. Integer sums are exact floats.
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(2, 8)
        m = rng.randint(n, 10)
        table = [[float(rng.randint(-2, 2)) for _ in range(m)] for _ in range(n)]
        rows, cols = optimize.linear_sum_assignment(table, maximize=True)
        assert solve_both_forms(table).total == sum(table[r][c] for r, c in zip(rows, cols))


@st.composite
def wide_tables(draw):
    """1-3 rows and up to 9 columns of tie-heavy integer scores with -inf holes, so rows
    with more than n finite cells (pruned), fewer than n, and non-covering tables occur."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 9))
    cell = st.one_of(st.just(NEG_INF), st.integers(-2, 2).map(float))
    return [[draw(cell) for _ in range(m)] for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(wide_tables())
@example([[1.0, 1.0, 1.0, 1.0, 1.0], [NEG_INF, 0.0, NEG_INF, NEG_INF, 2.0], [NEG_INF, 0.0, NEG_INF, NEG_INF, 2.0]])
@example([[2.0, 2.0, 2.0, 1.0, 1.0, 1.0], [2.0, 2.0, NEG_INF, NEG_INF, NEG_INF, NEG_INF]])
def test_pruned_wide_tables_agree_with_enumeration(table):
    oracle, _ = enumerate_best(table)
    result = solve_both_forms(table)
    reference = reference_assignment(table)
    assert result.assignment == reference.assignment == oracle
    assert result.total.hex() == reference.total.hex()


def solve_counting_engine(table):
    """``solve_assignment(table)`` and the number of edges of each matching-engine call it made,
    the same in both ranking forms."""
    edge_counts = []
    engine = matching._max_weight_matching

    def counting(n_rows, n_cols, weights):
        edge_counts.append(len(weights))
        return engine(n_rows, n_cols, weights)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matching, "_max_weight_matching", counting)
        result = solve_both_forms(table)
    rows, array = edge_counts[: len(edge_counts) // 2], edge_counts[len(edge_counts) // 2 :]
    assert rows == array
    return result, array


@st.composite
def greedy_tables(draw):
    """Up to 5 rows and 7 columns, more rows than columns included, of tie-heavy small ints
    and dyadics with -inf holes, so that the greedy certifies some tables and not others."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 7))
    cell = st.one_of(st.just(NEG_INF), st.integers(-2, 2).map(float), st.sampled_from([0.5, -0.25, 1.375]))
    return [[draw(cell) for _ in range(m)] for _ in range(n)]


# Fixed tables and whether they reach the engine.
GREEDY_BRANCHES = [
    ([[0.0, 0.0], [0.0, 0.0]], False),
    ([[2.0, 2.0, 1.0], [2.0, 2.0, 0.5], [0.5, 0.5, 0.5]], False),  # row 2 takes the last free column
    ([[2.0, 2.0, 1.0], [2.0, 2.0, 0.5], [0.5, 0.5, NEG_INF]], True),  # row 2's best columns are held
    ([[1.0, 0.0], [1.0, NEG_INF]], True),  # row 1's only best column is row 0's
    ([[NEG_INF, NEG_INF], [0.0, 1.0]], True),  # a row with no finite cell
    ([[1.0], [2.0]], True),  # more rows than columns
]


@pytest.mark.parametrize("table, engine_runs", GREEDY_BRANCHES)
def test_greedy_branch_on_fixed_tables(table, engine_runs):
    result, edge_counts = solve_counting_engine(table)
    reference = reference_assignment(table)
    assert bool(edge_counts) == engine_runs
    assert result.assignment == reference.assignment
    assert result.total.hex() == reference.total.hex()


@settings(max_examples=400, deadline=None)
@given(greedy_tables())
def test_greedy_shortcut_equals_reference(table):
    # Whenever the greedy answers without the engine, it gives the engine's unique optimum.
    result, edge_counts = solve_counting_engine(table)
    event(f"engine ran: {bool(edge_counts)}")
    if not edge_counts:
        reference = reference_assignment(table)
        assert None not in result.assignment
        assert result.assignment == reference.assignment
        assert result.total.hex() == reference.total.hex()


def phase1_table(inst):
    """The pipeline's phase-1 scores w_i * log v_i({j}), -inf where v_i({j}) = 0."""
    return [
        [wi * math.log(val) if val > 0.0 else NEG_INF for val in row]
        for wi, row in zip(inst.weight_floats, inst.singleton_array)
    ]


@pytest.mark.parametrize("n, m", [(20, 200), (40, 400)])
@pytest.mark.parametrize("family", FAMILIES)
def test_pruned_phase1_matches_unpruned_packing(family, n, m):
    for mode in WEIGHT_MODES:
        for seed in (1, 2, 3):
            table = phase1_table(random_instance(family, n, m, seed, mode))
            result = solve_both_forms(table)
            reference = reference_assignment(table)
            assert result.assignment == reference.assignment, (mode, seed)
            assert result.total.hex() == reference.total.hex(), (mode, seed)


def test_matching_engine_sees_at_most_n_squared_edges():
    # every row has at least 136 finite cells, so exactly n are kept per row
    table = phase1_table(random_instance("coverage", 20, 200, 2))
    result, edge_counts = solve_counting_engine(table)
    assert result.assignment == reference_assignment(table).assignment
    assert edge_counts == [20 * 20]
    # a row with fewer than n finite cells keeps them all; its only best column is row 0's
    _, edge_counts = solve_counting_engine([[1.0] * 6, [0.0] + [NEG_INF] * 5, [0.0] * 6])
    assert edge_counts == [3 + 1 + 3]
    # every row of this table can take its own best column, so the engine is never called
    table = phase1_table(random_instance("partition_matroid_rank", 20, 200, 1))
    result, edge_counts = solve_counting_engine(table)
    reference = reference_assignment(table)
    assert edge_counts == []
    assert result.assignment == reference.assignment
    assert result.total.hex() == reference.total.hex()


@st.composite
def large_tie_tables(draw):
    """Tie-heavy tables like :func:`greedy_tables` of at least 256 cells, the default
    ``SCREEN_MIN_CELLS``, so that the array ranking runs at its own size: 1-12 rows."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(max(n, -(-256 // n)), max(n, -(-256 // n)) + 8))
    cell = st.one_of(st.just(NEG_INF), st.integers(-2, 2).map(float), st.sampled_from([0.5, -0.25, 1.375]))
    return [draw(st.lists(cell, min_size=m, max_size=m)) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(large_tie_tables())
def test_large_tie_heavy_tables_match_the_unpruned_packing(table):
    assert len(table) * len(table[0]) >= instance.SCREEN_MIN_CELLS == 256
    result = solve_assignment(table)
    reference = reference_assignment(table)
    assert result == solve_both_forms(table)
    assert result.assignment == reference.assignment
    assert result.total.hex() == reference.total.hex()
