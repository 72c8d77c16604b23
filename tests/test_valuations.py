"""Valuation families and the structure checker."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nswfair import (
    Additive,
    BudgetAdditive,
    Coverage,
    ExplicitTable,
    PartitionMatroidRank,
    UnknownItem,
    check_submodular,
)
from nswfair.generate import FAMILIES, WEIGHT_MODES, random_instance
from nswfair import valuations as valuations_module
from nswfair.valuations import BundleState, Valuation, subset_values, valuation_from_params


def test_additive_eval():
    v = Additive({"a": 4, "b": 1, "c": 1, "d": 1})
    assert v.value([]) == 0.0
    assert v.value(["a", "b"]) == 5.0
    assert v.value(["a", "b", "c", "d"]) == 7.0


def test_budget_additive_caps():
    v = BudgetAdditive({"a": 4, "b": 3}, cap=5)
    assert v.value(["a"]) == 4.0
    assert v.value(["a", "b"]) == 5.0


def test_coverage_counts_union_once():
    v = Coverage({"a": ["u1", "u2"], "b": ["u2", "u3"]}, {"u1": 1, "u2": 1, "u3": 1})
    assert v.value(["a"]) == 2.0
    assert v.value(["a", "b"]) == 3.0


def test_partition_matroid_rank_respects_capacity():
    v = PartitionMatroidRank({"a": "c1", "b": "c1", "c": "c2"}, {"c1": 1, "c2": 2}, scale=3)
    assert v.value(["a", "b"]) == 3.0
    assert v.value(["a", "b", "c"]) == 6.0


def test_explicit_table_eval_and_validation():
    # order (a, b): masks 0, {a}, {b}, {a,b}
    v = ExplicitTable(["a", "b"], [0, 1, 1, 1])
    assert v.value(["a", "b"]) == 1.0
    with pytest.raises(ValueError):
        ExplicitTable(["a", "b"], [0, 1, 1])  # wrong length
    with pytest.raises(ValueError):
        ExplicitTable(["a", "b"], [1, 1, 1, 1])  # empty set not zero
    with pytest.raises(ValueError):
        ExplicitTable(["a", "b"], [0, 2, 1, 1])  # not monotone


def test_eval_rejects_unknown_items():
    v = Additive({"a": 1})
    with pytest.raises(UnknownItem):
        v.value(["zz"])


def test_eval_is_pure():
    v = Coverage({"a": ["u1"], "b": ["u1", "u2"]}, {"u1": 3, "u2": 2})
    assert v.value(["a", "b"]) == v.value(["b", "a"]) == v.value({"a", "b"})


def test_params_round_trip():
    originals = [
        Additive({"a": 4, "b": 0}),
        BudgetAdditive({"a": 4, "b": 3}, cap=5),
        Coverage({"a": ["u1"], "b": []}, {"u1": 2}),
        PartitionMatroidRank({"a": "c1", "b": "c1"}, {"c1": 1}, scale=2),
        ExplicitTable(["a", "b"], [0, 1, 2, 2]),
    ]
    for v in originals:
        clone = valuation_from_params(v.kind, v.params())
        for bundle in ([], ["a"], ["b"], ["a", "b"]):
            assert clone.value(bundle) == v.value(bundle)


def test_check_submodular_passes_additive():
    v = Additive({"a": 1, "b": 5, "c": 0})
    assert check_submodular(v, ["a", "b", "c"]) == []


class Table(Valuation):
    """Any table over the masks of ``order``, unscreened unlike ExplicitTable."""

    kind = "test_table"

    def __init__(self, order, values):
        self.order, self.values = list(order), values

    @property
    def items(self):
        return frozenset(self.order)

    def value(self, bundle):
        return float(self.values[sum(1 << self.order.index(j) for j in self._bundle(bundle))])


COMPLEMENTS = Table(["a", "b"], [0, 1, 1, 3])  # v({a, b}) = 3 > v({a}) + v({b})


def test_explicit_table_rejects_supermodular_table():
    with pytest.raises(ValueError, match="not submodular: 'a' and 'b'"):
        ExplicitTable(["a", "b"], [0, 1, 1, 3])


def test_explicit_table_allows_float_rounding_of_a_modular_table():
    # 0.8 - 0.7 rounds to 0.10000000000000009 > 0.1, yet v is additive.
    v = ExplicitTable(["a", "b"], [0, 0.1, 0.7, 0.8])
    assert v.value(["a", "b"]) == 0.8
    with pytest.raises(ValueError, match="not submodular"):
        ExplicitTable(["a", "b"], [0, 1, 1, 2 + 1e-6])
    with pytest.raises(ValueError, match="not monotone"):
        ExplicitTable(["a", "b"], [0, 0.1, 0.7, 0.7 - 1e-12])


def test_check_submodular_reports_one_witness_per_pair():
    # v(S) = |S|^2 breaks submodularity on every pair over many bases.
    items = [f"g{i}" for i in range(6)]
    squares = Table(items, [bin(mask).count("1") ** 2 for mask in range(1 << 6)])
    violations = check_submodular(squares, items)
    assert len(violations) == 15
    assert all(v.kind == "submodularity" and len(v.left) == len(v.right) == 1 for v in violations)


def test_check_submodular_flags_supermodular_table():
    violations = check_submodular(COMPLEMENTS, ["a", "b"])
    assert violations
    assert any(
        viol.kind == "submodularity" and {frozenset({"a"}), frozenset({"b"})} == {viol.left, viol.right}
        for viol in violations
    )


def test_check_submodular_witnesses_are_local():
    # v(S) = min(|S|, 2) with {a, b, c} bumped to 4: submodularity breaks on
    # top of each single item, monotonicity nowhere.
    vals = [min(bin(mask).count("1"), 2) for mask in range(8)]
    vals[7] = 4
    violations = check_submodular(Table(["a", "b", "c"], vals), ["a", "b", "c"])
    assert len(violations) == 3
    assert {v.kind for v in violations} == {"submodularity"}
    assert all(len(v.left) == len(v.right) == 2 and len(v.left & v.right) == 1 for v in violations)


def test_check_submodular_size_limit():
    v = Additive({f"g{i}": 1 for i in range(21)})
    with pytest.raises(ValueError):
        check_submodular(v, sorted(v.items))


class Delegating(Valuation):
    """A plain valuation that asks ``inner.value()``: :func:`subset_values` walks it."""

    def __init__(self, inner):
        self.inner, self._items = inner, inner.items

    def value(self, bundle):
        return self.inner.value(bundle)


def assert_table_is_value_bit_for_bit(v, items):
    table, walked = subset_values(v, items), subset_values(Delegating(v), items)
    assert table.dtype == float and table.size == 1 << len(items)
    for mask in range(table.size):
        subset = [j for t, j in enumerate(items) if mask >> t & 1]
        assert table[mask].hex() == walked[mask].hex() == v.value(subset).hex(), (mask, subset)


def orders(items):
    """``items`` in index order, shuffled, and as a strict sub-universe in a shuffled order."""
    shuffled = list(items)
    random.Random(len(items)).shuffle(shuffled)
    return [list(items), shuffled, shuffled[: len(items) - 2]]


@pytest.mark.parametrize("mode", WEIGHT_MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_subset_values_equal_value_bit_for_bit(family, mode):
    inst = random_instance(family, 3, 9, seed=5, weight_mode=mode)
    for v in inst.valuations:
        assert valuations_module._exact_table(v, inst.items) is not None  # the closed form answers
        for items in orders(inst.items) + [[]]:
            assert_table_is_value_bit_for_bit(v, items)


def test_subset_values_on_the_base_state_equal_value_bit_for_bit():
    coverage = random_instance("coverage", 1, 7, seed=2).valuations[0]
    items = sorted(coverage.items)
    masks = [[j for t, j in enumerate(items) if mask >> t & 1] for mask in range(1 << len(items))]
    values = [coverage.value(subset) for subset in masks]
    for v in (ExplicitTable(items, values), Table(items, values)):
        assert type(v.bundle_state(())) is BundleState
        for order in orders(items):
            assert_table_is_value_bit_for_bit(v, order)


@pytest.mark.parametrize("family", ["coverage", "partition_matroid_rank"])
def test_capped_terms_cross_a_block_boundary(family):
    # 2^17 masks make two blocks of 2^16; an element or class held on both sides of bit 16
    # counts its holders among the low bits per mask and among the high bits per block
    v = random_instance(family, 1, 17, seed=4).valuations[0]
    items = sorted(v.items, key=lambda j: int(j[1:]))
    holds = v._counts[0]
    assert any({e for j in items[:16] for e in holds[j]} & set(holds[j]) for j in items[16:])
    assert_table_is_value_bit_for_bit(v, items)


@st.composite
def hand_built(draw):
    """A small family over up to 7 items: zero values and empty covers, four elements shared
    by up to 4 items, matroid capacities below and above class sizes, budget caps of -0.0,
    0, mid and above the total, and values with a power-of-two denominator."""
    m = draw(st.integers(min_value=0, max_value=7))
    items = [f"g{i}" for i in range(m)]
    number = st.one_of(st.integers(0, 20), st.sampled_from([0.5, 2.25, 0.125]))
    family = draw(st.sampled_from(["additive", "budget_additive", "coverage", "matroid"]))
    if family in ("additive", "budget_additive"):
        values = {j: draw(number) for j in items}
        total = sum(values.values())
        cap = draw(st.sampled_from([-0.0, 0, total / 2, total + 1]))
        v = Additive(values) if family == "additive" else BudgetAdditive(values, cap=cap)
    elif family == "coverage":
        ground = [f"u{i}" for i in range(4)]
        covers = {j: draw(st.lists(st.sampled_from(ground), unique=True, max_size=3)) for j in items}
        v = Coverage(covers, {u: draw(number) for u in ground})
    else:
        labels = ["c0", "c1", "c2"]
        classes = {j: draw(st.sampled_from(labels)) for j in items}
        v = PartitionMatroidRank(classes, {c: draw(st.integers(0, 4)) for c in labels}, scale=draw(number))
    return v, draw(st.permutations(items))


@settings(max_examples=300, deadline=None)
@given(case=hand_built())
def test_closed_form_equals_the_walk_on_hand_built_families(case):
    v, items = case
    assert valuations_module._exact_table(v, items) is not None
    assert_table_is_value_bit_for_bit(v, items)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(valuations_module, "_BLOCK", 4)  # blocks of 4 masks: every capped term crosses them
        assert subset_values(v, items).tobytes() == subset_values(Delegating(v), items).tobytes()


GUARD_CASES = {
    # past the bound: the walk answers
    "coverage ints reach 2^53": (Coverage({"a": ["x"], "b": ["y"], "c": ["x", "y"]}, {"x": 2**52, "y": 2**52 + 1}), None),
    "additive 0.1 and 1e300": (Additive({"a": 0.1, "b": 1e300, "c": 1}), None),
    "matroid ints reach 2^53": (PartitionMatroidRank({"a": "c", "b": "c", "d": "e"}, {"c": 1, "e": 1}, 2.0**52), None),
    "q past 2^1023": (Additive({"a": 5e-324, "b": 1.5e-323, "c": 0.0}), None),  # ints 1 and 3
    "coverage q past 2^1023": (Coverage({"a": ["x"], "b": ["x", "y"]}, {"x": 1e-323, "y": 5e-324}), None),
    # just inside it: the closed form answers, a subnormal result included
    "ints just below 2^53": (BudgetAdditive({"a": 2**52, "b": 2**52 - 1, "c": 0}, cap=2**52 + 1), True),
    "q at 2^1023": (Additive({"a": 2.0**-1023, "b": 2.0**-1020, "c": 0.0}), True),
}


@pytest.mark.parametrize("case", GUARD_CASES.values(), ids=GUARD_CASES.keys())
def test_both_sides_of_the_exactness_guard_equal_value(case):
    v, closed = case
    items = sorted(v.items)
    assert (valuations_module._exact_table(v, items) is not None) == bool(closed)
    assert_table_is_value_bit_for_bit(v, items)


def test_only_the_four_families_take_the_closed_form():
    class Sub(Coverage):
        pass

    cover = Sub({"a": ["x"], "b": ["x"]}, {"x": 1})
    table = ExplicitTable(["a", "b"], [0, 1, 1, 1])
    for v in (cover, table, Delegating(cover)):
        assert valuations_module._exact_table(v, ["a", "b"]) is None, v
        assert subset_values(v, ["a", "b"]).tolist() == [0.0, 1.0, 1.0, 1.0]


FIVE_KINDS = [random_instance(family, 1, 4, seed=0).valuations[0] for family in FAMILIES] + [
    ExplicitTable(["g0", "g1", "g2", "g3"], [bin(mask).count("1") for mask in range(16)])
]


@pytest.mark.parametrize("v", FIVE_KINDS, ids=lambda v: v.kind)
@pytest.mark.parametrize("tabulate", [subset_values, check_submodular])
def test_tables_refuse_foreign_and_repeated_items(v, tabulate):
    with pytest.raises(UnknownItem, match="'zz'"):
        tabulate(v, ["g0", "zz", "g1"])
    with pytest.raises(UnknownItem):
        tabulate(v, ["g0", "zz", "zz"])  # the domain is checked first
    with pytest.raises(ValueError, match="repeat") as refused:
        tabulate(v, ["g0", "g1", "g0"])
    assert not isinstance(refused.value, UnknownItem)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6),
    cap=st.integers(min_value=0, max_value=60),
)
def test_budget_additive_always_submodular(values, cap):
    items = [f"g{i}" for i in range(len(values))]
    v = BudgetAdditive(dict(zip(items, values)), cap=cap)
    assert check_submodular(v, items) == []


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(min_value=1, max_value=5))
def test_coverage_always_submodular(data, m):
    ground = [f"u{i}" for i in range(4)]
    items = [f"g{i}" for i in range(m)]
    covers = {
        j: data.draw(st.lists(st.sampled_from(ground), unique=True, max_size=4), label=j)
        for j in items
    }
    weights = {u: data.draw(st.integers(min_value=0, max_value=9), label=u) for u in ground}
    v = Coverage(covers, weights)
    assert check_submodular(v, items) == []


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(min_value=0, max_value=4))
def test_local_tests_match_the_pairwise_definition(data, m):
    # Reference: v(S) + v(T) >= v(S | T) + v(S & T) for every pair, and
    # v(S) <= v(T) for every S inside T.
    vals = [0] + data.draw(st.lists(st.integers(0, 4), min_size=(1 << m) - 1, max_size=(1 << m) - 1))
    masks = range(1 << m)
    pairwise = all(vals[s] + vals[t] >= vals[s | t] + vals[s & t] for s in masks for t in masks) and all(
        vals[s] <= vals[t] for s in masks for t in masks if s & t == s
    )
    items = [f"g{i}" for i in range(m)]
    assert (check_submodular(Table(items, vals), items) == []) == pairwise


# Non-integer floats, subnormals and values near 1e300 whose sums over six
# items stay far below the float range, so 2 * v(all items) is finite.
AWKWARD = st.one_of(
    st.sampled_from([0.0, 0.1, 1 / 3, 5e-324, 1.0, 2.5, 1e300, 3.3e299]),
    st.floats(min_value=0.0, max_value=1e300),
)


@st.composite
def valuations(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    items = [f"g{i}" for i in range(m)]
    family = draw(st.sampled_from(["additive", "budget_additive", "coverage", "matroid", "table"]))
    if family in ("additive", "budget_additive"):
        values = {j: draw(AWKWARD) for j in items}
        v = Additive(values) if family == "additive" else BudgetAdditive(values, cap=draw(AWKWARD))
    elif family == "matroid":
        classes = {j: draw(st.sampled_from(["c0", "c1"])) for j in items}
        capacities = {"c0": draw(st.integers(0, 3)), "c1": draw(st.integers(0, 3))}
        v = PartitionMatroidRank(classes, capacities, scale=draw(AWKWARD))
    else:
        ground = [f"u{i}" for i in range(4)]
        covers = {j: draw(st.lists(st.sampled_from(ground), unique=True, max_size=4)) for j in items}
        v = Coverage(covers, {u: draw(AWKWARD) for u in ground})
        if family == "table":
            subsets = [[j for i, j in enumerate(items) if mask >> i & 1] for mask in range(1 << m)]
            v = ExplicitTable(items, [v.value(s) for s in subsets])
    assert math.isfinite(2 * v.value(items))
    return v, items


@settings(max_examples=300, deadline=None)
@given(data=st.data(), case=valuations())
def test_bundle_state_equals_value_bit_for_bit(data, case):
    v, items = case
    start = data.draw(st.sets(st.sampled_from(items)), label="start")
    state = v.bundle_state(start)
    held = set(start)
    for step in range(data.draw(st.integers(0, 12), label="steps") + 1):
        if step:
            item = data.draw(st.sampled_from(items))
            if item in held:
                state.remove(item)
                held.remove(item)
            else:
                state.add(item)
                held.add(item)
        assert state.bundle == held
        assert state.value().hex() == v.value(held).hex()
        for j in items:
            answer, changed = (state.minus(j), held - {j}) if j in held else (state.plus(j), held | {j})
            assert answer.hex() == v.value(changed).hex(), (j, sorted(held))


@pytest.mark.parametrize("family", ["coverage", "partition_matroid_rank"])
def test_a_count_state_holds_counts_only_for_elements_its_items_hold(family):
    v = random_instance(family, 1, 200, 1).valuations[0]
    holds = v._counts[0]
    state = v.bundle_state([])
    assert not state._count and state.value() == 0.0
    bundle = ["g3", "g17", "g100"]
    for item in bundle:
        state.add(item)
    assert state._count.keys() == {e for item in bundle for e in holds[item]} != set()
    assert state.value() == v.value(bundle)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), values=st.lists(AWKWARD, min_size=1, max_size=6))
def test_sums_are_correctly_rounded(data, values):
    items = [f"g{i}" for i in range(len(values))]
    bundle = data.draw(st.sets(st.sampled_from(items)))
    exact = float(sum((Fraction(x) for j, x in zip(items, values) if j in bundle), Fraction(0)))
    assert Additive(dict(zip(items, values))).value(bundle) == exact
    # each item covers its own element, so coverage sums the same weights
    coverage = Coverage({j: [f"u{j}"] for j in items}, {f"u{j}": x for j, x in zip(items, values)})
    assert coverage.value(bundle) == exact
