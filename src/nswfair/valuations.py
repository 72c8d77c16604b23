"""Valuation oracles over indivisible items.

Shipped families (all monotone, submodular, v(empty) = 0 by construction):

* ``Additive``            v(S) = sum of per-item values
* ``BudgetAdditive``      v(S) = min(cap, sum of per-item values)
* ``Coverage``            v(S) = total weight of ground elements covered by S
* ``PartitionMatroidRank``v(S) = scale * sum_c min(capacity_c, |S ∩ class c|)
* ``ExplicitTable``       explicit table over all subsets of <= 20 items

Every number a constructor reads goes through :func:`as_number`, the one
rule for a number in an input file: finite, nonnegative, within float range,
and integral for a capacity.

Every oracle is immutable after construction and evaluates as a pure
function: repeated calls with equal arguments return bit-identical floats.
Sums are correctly rounded (``math.fsum``), so a value does not depend on the
order of the bundle's items.

``Valuation.bundle_state(bundle)`` returns a :class:`BundleState`: a live
bundle R that answers v(R), v(R + j) and v(R - j) and changes by ``add(j)``
and ``remove(j)``. The base form calls ``value()`` on sets; tables and other
stateless valuations use it. The generator families keep running counts, the
same floats bit for bit (every float is an integer count of 1/q, q the largest
power-of-two denominator, and int / int rounds correctly): an exact sum of
item values for the additive pair, and for coverage and the matroid rank, both
v(S) = sum_e w_e * min(c_e, how many items of S hold e), one count for each
element of the items a state has met (not for the whole ground set).

``subset_values(v, items)`` tabulates v over every subset of ``items``: the four
families in closed form from the same counts, others by walking a bundle state.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .errors import UnknownItem

__all__ = [
    "Valuation",
    "BundleState",
    "Additive",
    "BudgetAdditive",
    "Coverage",
    "PartitionMatroidRank",
    "ExplicitTable",
    "EXACT_FAMILIES",
    "VALUATION_KINDS",
    "valuation_from_params",
    "StructureViolation",
    "check_submodular",
    "subset_values",
    "as_number",
]


def as_list(value, what: str):
    """``value``, if a list, tuple or set: a JSON string or object would be read as its characters or keys."""
    if not isinstance(value, (list, tuple, set, frozenset)):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def as_number(value, what: str, integer: bool = False) -> float:
    """``value``, a number read from an input file, as a finite nonnegative float, integral if
    ``integer`` is set; else a ValueError naming ``what``. JSON ``true`` and ``"2"`` are not
    numbers, and an integer too large for a float is not finite."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x) or x < 0 or integer and not x.is_integer():
        kind = "integer" if integer else "number"
        raise ValueError(f"{what} must be a finite nonnegative {kind}, got {value!r}")
    return x


class Valuation:
    """Monotone set function over a fixed finite item domain ``items`` with v(empty) = 0. Monotone
    (v(S) <= v(T) for S within T) is a precondition: :func:`nswfair.efx.half_efx_check` relies on
    it, and so does the swap search's rule that a taker whose bundle is worth v(all items) gains
    exactly 0.0 from any item."""

    kind: str = "abstract"

    @property
    def items(self) -> FrozenSet[str]:
        return self._items

    def value(self, bundle: Iterable[str]) -> float:
        """Evaluate the bundle. Raises :class:`UnknownItem` on foreign ids."""
        raise NotImplementedError

    def params(self) -> dict:
        """JSON-ready parameter dict, inverse of :func:`valuation_from_params`."""
        raise NotImplementedError

    def bundle_state(self, bundle: Iterable[str]) -> "BundleState":
        """A live bundle R, starting at ``bundle``, that answers v(R), v(R + j) and v(R - j)
        with the floats :meth:`value` returns. This base form asks :meth:`value` each time."""
        return BundleState(self, bundle)

    def _bundle(self, bundle: Iterable[str]) -> FrozenSet[str]:
        s = frozenset(bundle)
        foreign = s - self.items
        if foreign:
            raise UnknownItem(f"items {sorted(foreign)} are outside this valuation's domain")
        return s


class BundleState:
    """A valuation over a live bundle R, the set ``bundle``: ``value()`` is v(R), ``plus(j)`` is
    v(R + j) for j outside R and ``minus(j)`` is v(R - j) for j in R; ``add(j)`` (j outside R)
    and ``remove(j)`` (j in R) change R. The starting bundle is checked against the domain;
    later items must come from it. Subclasses keep counts that answer without calling
    :meth:`Valuation.value`, bit for bit equal to it; this base form calls it on a set.
    """

    def __init__(self, v: Valuation, bundle: Iterable[str]):
        self.v = v
        self.bundle: set = set()
        for item in v._bundle(bundle):
            self.add(item)

    def value(self) -> float:
        return self.v.value(self.bundle)

    def plus(self, item: str) -> float:
        return self.v.value(self.bundle | {item})

    def minus(self, item: str) -> float:
        return self.v.value(self.bundle - {item})

    def add(self, item: str) -> None:
        self.bundle.add(item)

    def remove(self, item: str) -> None:
        self.bundle.remove(item)


_K = TypeVar("_K")


def exact_ints(values: Mapping[_K, float]) -> Tuple[Dict[_K, int], int]:
    """Each finite value as an integer count of 1/q, with q the largest denominator (a power
    of two), so int sums are exact and int / q rounds an exact sum correctly, as fsum does."""
    ratios = {k: x.as_integer_ratio() for k, x in values.items()}
    q = max((den for _, den in ratios.values()), default=1)
    return {k: num * (q // den) for k, (num, den) in ratios.items()}, q


class _Sum(Valuation):
    """v(S) = min(cap, sum of per-item values); the cap of :class:`Additive` is infinite."""

    _cap = math.inf

    def __init__(self, values: Mapping[str, float]):
        self._values = {str(k): as_number(v, f"value of {k!r}") for k, v in values.items()}
        self._items = frozenset(self._values)
        self._exact = exact_ints(self._values)

    def value(self, bundle: Iterable[str]) -> float:
        return min(self._cap, math.fsum(self._values[j] for j in self._bundle(bundle)))

    def params(self) -> dict:
        return {"values": dict(sorted(self._values.items()))}

    def bundle_state(self, bundle: Iterable[str]) -> BundleState:
        return _SumState(self, bundle)


class _SumState(BundleState):
    """The sum over R as an exact int."""

    def __init__(self, v: _Sum, bundle: Iterable[str]):
        (self._ints, self._q), self._cap = v._exact, v._cap
        self._total = 0
        super().__init__(v, bundle)

    def value(self) -> float:
        return min(self._cap, self._total / self._q)

    def plus(self, item: str) -> float:
        return min(self._cap, (self._total + self._ints[item]) / self._q)

    def minus(self, item: str) -> float:
        return min(self._cap, (self._total - self._ints[item]) / self._q)

    def add(self, item: str) -> None:
        self.bundle.add(item)
        self._total += self._ints[item]

    def remove(self, item: str) -> None:
        self.bundle.remove(item)
        self._total -= self._ints[item]


class Additive(_Sum):
    kind = "additive"


class BudgetAdditive(_Sum):
    kind = "budget_additive"

    def __init__(self, values: Mapping[str, float], cap: float):
        super().__init__(values)
        self._cap = as_number(cap, "cap")

    def params(self) -> dict:
        return {**super().params(), "cap": self._cap}


class Coverage(Valuation):
    kind = "coverage"

    def __init__(self, covers: Mapping[str, Iterable[str]], element_weights: Mapping[str, float]):
        self._weights = {str(k): as_number(v, f"weight of element {k!r}") for k, v in element_weights.items()}
        self._covers: Dict[str, FrozenSet[str]] = {}
        for item, elems in covers.items():
            cov = frozenset(str(e) for e in as_list(elems, f"cover of item {item!r}"))
            missing = cov.difference(self._weights)
            if missing:
                raise ValueError(f"item {item!r} covers unweighted elements {sorted(missing)}")
            self._covers[str(item)] = cov
        self._items = frozenset(self._covers)
        # Built here: a cached_property writes to __dict__, which slows value()'s attribute reads.
        self._counts = self._covers, exact_ints(self._weights), dict.fromkeys(self._weights, 1)

    def value(self, bundle: Iterable[str]) -> float:
        s = self._bundle(bundle)
        covered: set[str] = set()
        for j in s:
            covered |= self._covers[j]
        return math.fsum(self._weights[e] for e in covered)

    def params(self) -> dict:
        return {
            "covers": {k: sorted(v) for k, v in sorted(self._covers.items())},
            "element_weights": dict(sorted(self._weights.items())),
        }

    def bundle_state(self, bundle: Iterable[str]) -> BundleState:
        return _CountState(self, bundle)


class PartitionMatroidRank(Valuation):
    kind = "partition_matroid_rank"

    def __init__(self, classes: Mapping[str, str], capacities: Mapping[str, int], scale: float = 1.0):
        self._classes = {str(k): str(v) for k, v in classes.items()}
        self._capacities: Dict[str, int] = {}
        for label, cap in capacities.items():
            self._capacities[str(label)] = int(as_number(cap, f"capacity of class {label!r}", integer=True))
        missing = set(self._classes.values()) - self._capacities.keys()
        if missing:
            raise ValueError(f"classes {sorted(missing)} have no capacity")
        self._scale = as_number(scale, "scale")
        self._items = frozenset(self._classes)
        one = {label: (label,) for label in self._capacities}  # one tuple per class, shared by its items
        holds = {j: one[label] for j, label in self._classes.items()}
        self._counts = holds, exact_ints(dict.fromkeys(self._capacities, self._scale)), self._capacities

    def value(self, bundle: Iterable[str]) -> float:
        s = self._bundle(bundle)
        filled: Dict[str, int] = {}
        for j in s:
            label = self._classes[j]
            filled[label] = filled.get(label, 0) + 1
        rank = sum(min(self._capacities[label], count) for label, count in filled.items())
        return self._scale * float(rank)

    def params(self) -> dict:
        return {
            "classes": dict(sorted(self._classes.items())),
            "capacities": dict(sorted(self._capacities.items())),
            "scale": self._scale,
        }

    def bundle_state(self, bundle: Iterable[str]) -> BundleState:
        return _CountState(self, bundle)


class _CountState(BundleState):
    """v(R) = sum_e w_e * min(c_e, how many items of R hold e) as an exact int, from the
    valuation's ``_counts``: the elements each item holds, the weights as :func:`exact_ints`
    and the capacities c_e. Coverage caps each element at 1; the rank has one element per class.
    Counts start empty and an element's is made, at 0, when first read: a state counts only the
    elements of items it has held or been asked about, so building one costs its bundle's size."""

    def __init__(self, v: Valuation, bundle: Iterable[str]):
        self._holds, (self._ints, self._q), self._caps = v._counts
        self._count: Dict[str, int] = defaultdict(int)
        self._total = 0
        super().__init__(v, bundle)

    def value(self) -> float:
        return self._total / self._q

    def plus(self, item: str) -> float:
        count, caps, gain = self._count, self._caps, 0
        for e in self._holds[item]:
            if count[e] < caps[e]:
                gain += self._ints[e]
        return (self._total + gain) / self._q

    def minus(self, item: str) -> float:
        count, caps, loss = self._count, self._caps, 0
        for e in self._holds[item]:
            if count[e] <= caps[e]:
                loss += self._ints[e]
        return (self._total - loss) / self._q

    def add(self, item: str) -> None:
        self.bundle.add(item)
        count, caps = self._count, self._caps
        for e in self._holds[item]:
            if count[e] < caps[e]:
                self._total += self._ints[e]
            count[e] += 1

    def remove(self, item: str) -> None:
        self.bundle.remove(item)
        count, caps = self._count, self._caps
        for e in self._holds[item]:
            count[e] -= 1
            if count[e] < caps[e]:
                self._total -= self._ints[e]


class ExplicitTable(Valuation):
    """Explicit table over all subsets of an ordered item list (<= 20 items).

    ``values[mask]`` is the value of the subset whose bit i (least significant
    first) selects ``order[i]``. The constructor enforces v(empty) = 0,
    nonnegative finite entries, monotonicity and submodularity through the
    local tests of :func:`check_submodular`; for float rounding, a second
    difference may exceed 0 by ``SUBMODULAR_SLACK`` * max(1, largest entry).
    """

    kind = "explicit_table"
    MAX_ITEMS = 20
    SUBMODULAR_SLACK = 1e-9

    def __init__(self, order: Sequence[str], values: Sequence[float]):
        self._order = tuple(str(j) for j in as_list(order, "table order"))
        if len(set(self._order)) != len(self._order):
            raise ValueError("duplicate item ids in table order")
        m = len(self._order)
        if m > self.MAX_ITEMS:
            raise ValueError(f"explicit tables support at most {self.MAX_ITEMS} items, got {m}")
        if len(values) != 1 << m:
            raise ValueError(f"table must have 2^{m} = {1 << m} entries, got {len(values)}")
        vals = np.asarray([as_number(v, f"table entry {k}") for k, v in enumerate(values)], dtype=float)
        if vals[0] != 0.0:
            raise ValueError("the empty set must have value 0")
        slack = self.SUBMODULAR_SLACK * max(1.0, float(vals.max()))
        for kind, left, right in _local_violations(vals, slack):
            if kind == "monotonicity":
                added = self._order[(left ^ right).bit_length() - 1]
                raise ValueError(f"table is not monotone: adding {added!r} to mask {left} lowers the value")
            base = left & right
            i, j = (self._order[(x ^ base).bit_length() - 1] for x in (left, right))
            raise ValueError(
                f"table is not submodular: {i!r} and {j!r} add more together than apart to mask {base}"
            )
        self._values = vals
        self._bit = {j: i for i, j in enumerate(self._order)}
        self._items = frozenset(self._order)

    def value(self, bundle: Iterable[str]) -> float:
        s = self._bundle(bundle)
        mask = 0
        for j in s:
            mask |= 1 << self._bit[j]
        return float(self._values[mask])

    def params(self) -> dict:
        return {"order": list(self._order), "values": [float(v) for v in self._values]}


#: The four generator families. Their floats keep v(R + j) - v(R) <= v({j}) up to rounding, so
#: the swap search screens their takers, and their subset tables have a closed form. Both hold
#: only for a valuation whose type is one of these: a subclass may override :meth:`Valuation.value`.
#: Read it through this module, so that one patch of it switches both off.
EXACT_FAMILIES = (Additive, BudgetAdditive, Coverage, PartitionMatroidRank)
VALUATION_KINDS = {cls.kind: cls for cls in EXACT_FAMILIES + (ExplicitTable,)}


def valuation_from_params(kind: str, params: Mapping) -> Valuation:
    """Rebuild a valuation from its ``kind`` tag and ``params()`` dict."""
    try:
        cls = VALUATION_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown valuation kind {kind!r}") from None
    return cls(**params)


class StructureViolation(NamedTuple):
    """A witness pair (S, T) breaking submodularity or monotonicity."""

    kind: str  # "submodularity" | "monotonicity"
    left: FrozenSet[str]
    right: FrozenSet[str]


def _local_violations(vals: np.ndarray, slack: float) -> Iterator[Tuple[str, int, int]]:
    """Failed local tests of a 2^m-entry table, as (kind, left mask, right mask).

    With d_i(S) = v(S + i) - v(S): monotone is d_i(S) >= 0, witness
    (S, S + i); submodular is d_i(S + j) <= d_i(S) + slack for i < j,
    witness (S + i, S + j). Whole-array differences, one axis per item; at
    most one witness, the smallest S, per item i and per pair (i, j).
    """
    m = vals.size.bit_length() - 1
    table = vals.reshape((2,) * m)
    masks = np.arange(vals.size, dtype=np.int64).reshape((2,) * m)
    for i in range(m):
        axis_i = m - 1 - i  # axis 0 holds the most significant bit
        gain = np.diff(table, axis=axis_i)
        base = masks.take([0], axis=axis_i)
        for s in base[gain < 0][:1].tolist():
            yield "monotonicity", s, s | 1 << i
        for j in range(i + 1, m):
            axis_j = m - 1 - j
            for s in base.take([0], axis=axis_j)[np.diff(gain, axis=axis_j) > slack][:1].tolist():
                yield "submodularity", s | 1 << i, s | 1 << j


_BLOCK = 1 << 16  # most masks one capped term is built for at a time


def _exact_table(v: Valuation, items: Sequence[str]) -> Optional[np.ndarray]:
    """:func:`subset_values` in closed form for the four generator families, :data:`EXACT_FAMILIES`;
    None for any other valuation, or when the bound below fails and the walk must answer.

    v(S) = T(S) / q, T(S) the states' exact int (:func:`exact_ints`): sum_t x_t over the items
    of S for a sum, sum_e w_e * min(c_e, |S ∩ H_e|) for the counts, H_e the holders of e among
    ``items``. An element with |H_e| <= c_e is folded into its holders' x_t. The x_t are summed
    by doubling, out[2^t : 2^(t+1)] = out[:2^t] + x_t, in place; each other element adds its
    capped term ``_BLOCK`` masks at a time.

    Exact: when T(all items) < 2^53, every partial sum is an integer that float64 adds exactly;
    when also q <= 2^1023, float(T) / float(q) is one correctly rounded division of exact
    operands, the float the state's int / int gives, a subnormal one included. The budget cap
    is then np.minimum(table, cap). Past either bound (huge ints, or decimal or tiny values,
    where q reaches 2^1074) it returns None."""
    if type(v) not in EXACT_FAMILIES:
        return None
    if isinstance(v, _Sum):
        (ints, q), cap = v._exact, v._cap
        steps, capped = [ints[j] for j in items], []
    else:
        holds, (ints, q), caps = v._counts
        holders: Dict[str, int] = defaultdict(int)
        for t, j in enumerate(items):
            for e in holds[j]:
                holders[e] |= 1 << t
        over = {e: h for e, h in holders.items() if h.bit_count() > caps[e]}
        steps = [sum(ints[e] for e in holds[j] if e not in over) for j in items]
        capped, cap = [(ints[e], caps[e], h) for e, h in over.items()], math.inf
    if q > 2**1023 or sum(steps) + sum(w * c for w, c, _ in capped) >= 2**53:
        return None
    out = np.zeros(1 << len(items))
    for t, x in enumerate(steps):
        np.add(out[: 1 << t], float(x), out=out[1 << t : 2 << t])
    size = min(out.size, _BLOCK)
    for w, c, h in capped:
        low = np.zeros(size, dtype=np.uint8)  # low[r]: how many bits of r, r < size, are holders
        for t in range(size.bit_length() - 1):
            if h >> t & 1:
                low.reshape(-1, 2, 1 << t)[:, 1] += 1
        for start in range(0, out.size, size):
            out[start : start + size] += float(w) * np.minimum(low + (start & h).bit_count(), c)
    out /= float(q)
    if cap < math.inf:
        np.minimum(out, cap, out=out)  # a cap of -0.0 wins over 0.0, as in min(cap, 0.0)
    return out


def subset_values(v: Valuation, items: Sequence[str]) -> np.ndarray:
    """v(S) for every subset S of ``items`` as a float64 array indexed by mask, bit t selecting
    ``items[t]``. The four generator families take the closed form of :func:`_exact_table`,
    with no ``value()`` call and no Python step per subset. Every other valuation, and a family
    whose ints fail that form's bound, is walked: one :meth:`Valuation.bundle_state` visits the
    subsets in Gray-code order, one ``add`` or ``remove`` a step. Both give the floats
    :meth:`Valuation.value` gives. ``items`` must be distinct ids of the domain: a foreign id
    raises :class:`UnknownItem`, a repeated one ``ValueError``.

    >>> subset_values(Additive({"a": 1, "b": 2}), ["a", "b"]).tolist()
    [0.0, 1.0, 2.0, 3.0]
    """
    if len(v._bundle(items)) < len(items):
        raise ValueError(f"item ids repeat in {list(items)!r}")
    out = _exact_table(v, items)
    if out is not None:
        return out
    out = np.empty(1 << len(items))
    state, mask = v.bundle_state(()), 0
    out[0] = state.value()
    for s in range(1, out.size):
        mask ^= (bit := s & -s)  # step s flips the item of s's lowest set bit
        (state.add if mask & bit else state.remove)(items[bit.bit_length() - 1])
        out[mask] = state.value()
    return out


def _mask_set(universe: Sequence[str], mask: int) -> FrozenSet[str]:
    return frozenset(universe[i] for i in range(len(universe)) if mask >> i & 1)


def check_submodular(v: Valuation, universe: Sequence[str]) -> List[StructureViolation]:
    """Screen ``v`` for submodularity and monotonicity violations on ``universe``.

    It tabulates all 2^|universe| subsets with :func:`subset_values`, for at
    most ``ExplicitTable.MAX_ITEMS`` distinct items, and runs the local tests
    that :class:`ExplicitTable` enforces, with at most one witness per item,
    (S, S + i) for monotonicity, and per item pair, (S + i, S + j) for
    submodularity. An empty list means no violation was found; the tests are
    exact, with no rounding slack.
    """
    universe = list(universe)
    u = len(universe)
    if u > ExplicitTable.MAX_ITEMS:
        raise ValueError(f"check_submodular supports at most {ExplicitTable.MAX_ITEMS} items, got {u}")
    vals = subset_values(v, universe)
    return [
        StructureViolation(kind, _mask_set(universe, left), _mask_set(universe, right))
        for kind, left, right in _local_violations(vals, 0.0)
    ]
