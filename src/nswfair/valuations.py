"""Valuation oracles over indivisible items.

Shipped families (all monotone, submodular, v(empty) = 0 by construction):

* ``Additive``            v(S) = sum of per-item values
* ``BudgetAdditive``      v(S) = min(cap, sum of per-item values)
* ``Coverage``            v(S) = total weight of ground elements covered by S
* ``PartitionMatroidRank``v(S) = scale * sum_c min(capacity_c, |S ∩ class c|)
* ``ExplicitTable``       explicit table over all subsets of <= 20 items

``EndowedValuation`` is the positively shifted wrapper used by the local
search: vbar(S) = v(favorite) + v(S), which makes the empty set worth a
positive amount while preserving monotonicity and submodularity.

Every oracle is immutable after construction and evaluates as a pure
function: repeated calls with equal arguments return bit-identical floats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import AgentNotEndowable, UnknownItem

__all__ = [
    "Valuation",
    "Additive",
    "BudgetAdditive",
    "Coverage",
    "PartitionMatroidRank",
    "ExplicitTable",
    "EndowedValuation",
    "VALUATION_KINDS",
    "valuation_from_params",
    "endow",
    "StructureViolation",
    "check_submodular",
]


def _as_nonneg_float(value, what: str) -> float:
    x = float(value)
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"{what} must be a finite nonnegative number, got {value!r}")
    return x


class Valuation:
    """Monotone set function over a fixed finite item domain with v(empty) = 0."""

    kind: str = "abstract"

    @property
    def items(self) -> FrozenSet[str]:
        raise NotImplementedError

    def value(self, bundle: Iterable[str]) -> float:
        """Evaluate the bundle. Raises :class:`UnknownItem` on foreign ids."""
        raise NotImplementedError

    def params(self) -> dict:
        """JSON-ready parameter dict, inverse of :func:`valuation_from_params`."""
        raise NotImplementedError

    def _bundle(self, bundle: Iterable[str]) -> FrozenSet[str]:
        s = frozenset(bundle)
        foreign = s - self.items
        if foreign:
            raise UnknownItem(f"items {sorted(foreign)} are outside this valuation's domain")
        return s


class Additive(Valuation):
    kind = "additive"

    def __init__(self, values: Mapping[str, float]):
        self._values = {str(k): _as_nonneg_float(v, f"value of {k!r}") for k, v in values.items()}
        self._items = frozenset(self._values)

    @property
    def items(self) -> FrozenSet[str]:
        return self._items

    def value(self, bundle: Iterable[str]) -> float:
        s = self._bundle(bundle)
        return float(sum(self._values[j] for j in sorted(s)))

    def params(self) -> dict:
        return {"values": dict(sorted(self._values.items()))}


class BudgetAdditive(Valuation):
    kind = "budget_additive"

    def __init__(self, values: Mapping[str, float], cap: float):
        self._values = {str(k): _as_nonneg_float(v, f"value of {k!r}") for k, v in values.items()}
        self._cap = _as_nonneg_float(cap, "cap")
        self._items = frozenset(self._values)

    @property
    def items(self) -> FrozenSet[str]:
        return self._items

    def value(self, bundle: Iterable[str]) -> float:
        s = self._bundle(bundle)
        return min(self._cap, float(sum(self._values[j] for j in sorted(s))))

    def params(self) -> dict:
        return {"values": dict(sorted(self._values.items())), "cap": self._cap}


class Coverage(Valuation):
    kind = "coverage"

    def __init__(self, covers: Mapping[str, Iterable[str]], element_weights: Mapping[str, float]):
        self._weights = {
            str(k): _as_nonneg_float(v, f"weight of element {k!r}") for k, v in element_weights.items()
        }
        self._covers: Dict[str, FrozenSet[str]] = {}
        for item, elems in covers.items():
            cov = frozenset(str(e) for e in elems)
            missing = cov - self._weights.keys()
            if missing:
                raise ValueError(f"item {item!r} covers unweighted elements {sorted(missing)}")
            self._covers[str(item)] = cov
        self._items = frozenset(self._covers)

    @property
    def items(self) -> FrozenSet[str]:
        return self._items

    def value(self, bundle: Iterable[str]) -> float:
        s = self._bundle(bundle)
        covered: set[str] = set()
        for j in s:
            covered |= self._covers[j]
        return float(sum(self._weights[e] for e in sorted(covered)))

    def params(self) -> dict:
        return {
            "covers": {k: sorted(v) for k, v in sorted(self._covers.items())},
            "element_weights": dict(sorted(self._weights.items())),
        }


class PartitionMatroidRank(Valuation):
    kind = "partition_matroid_rank"

    def __init__(self, classes: Mapping[str, str], capacities: Mapping[str, int], scale: float = 1.0):
        self._classes = {str(k): str(v) for k, v in classes.items()}
        self._capacities: Dict[str, int] = {}
        for label, cap in capacities.items():
            if int(cap) != cap or cap < 0:
                raise ValueError(f"capacity of class {label!r} must be a nonnegative integer")
            self._capacities[str(label)] = int(cap)
        missing = set(self._classes.values()) - self._capacities.keys()
        if missing:
            raise ValueError(f"classes {sorted(missing)} have no capacity")
        self._scale = _as_nonneg_float(scale, "scale")
        self._items = frozenset(self._classes)

    @property
    def items(self) -> FrozenSet[str]:
        return self._items

    def value(self, bundle: Iterable[str]) -> float:
        s = self._bundle(bundle)
        filled: Dict[str, int] = {}
        for j in s:
            label = self._classes[j]
            filled[label] = filled.get(label, 0) + 1
        rank = sum(min(self._capacities[label], count) for label, count in sorted(filled.items()))
        return self._scale * float(rank)

    def params(self) -> dict:
        return {
            "classes": dict(sorted(self._classes.items())),
            "capacities": dict(sorted(self._capacities.items())),
            "scale": self._scale,
        }


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
        self._order = tuple(str(j) for j in order)
        if len(set(self._order)) != len(self._order):
            raise ValueError("duplicate item ids in table order")
        m = len(self._order)
        if m > self.MAX_ITEMS:
            raise ValueError(f"explicit tables support at most {self.MAX_ITEMS} items, got {m}")
        if len(values) != 1 << m:
            raise ValueError(f"table must have 2^{m} = {1 << m} entries, got {len(values)}")
        vals = np.asarray([float(v) for v in values], dtype=float)
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("table entries must be finite and nonnegative")
        if vals[0] != 0.0:
            raise ValueError("the empty set must have value 0")
        slack = self.SUBMODULAR_SLACK * max(1.0, float(vals.max()))
        for kind, left, right in _local_violations(vals, 0.0, slack):
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

    @property
    def items(self) -> FrozenSet[str]:
        return self._items

    def value(self, bundle: Iterable[str]) -> float:
        s = self._bundle(bundle)
        mask = 0
        for j in s:
            mask |= 1 << self._bit[j]
        return float(self._values[mask])

    def params(self) -> dict:
        return {"order": list(self._order), "values": [float(v) for v in self._values]}


VALUATION_KINDS = {
    cls.kind: cls for cls in (Additive, BudgetAdditive, Coverage, PartitionMatroidRank, ExplicitTable)
}


def valuation_from_params(kind: str, params: Mapping) -> Valuation:
    """Rebuild a valuation from its ``kind`` tag and ``params()`` dict."""
    try:
        cls = VALUATION_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown valuation kind {kind!r}") from None
    return cls(**params)


@dataclass(frozen=True)
class EndowedValuation:
    """Positively shifted wrapper vbar(S) = offset + base(S) with offset > 0.

    ``favorite`` is the smallest-index item of the local-search universe with
    maximum singleton value and ``offset`` equals its value, so every single
    item j satisfies vbar({j}) <= 2 * vbar(empty).
    """

    base: Valuation
    favorite: str
    offset: float

    def value(self, bundle: Iterable[str]) -> float:
        return self.offset + self.base.value(bundle)


def endow(v: Valuation, candidates: Sequence[str]) -> EndowedValuation:
    """Shift ``v`` by its favorite item among ``candidates`` (given in index order).

    Ties pick the earliest candidate. Raises :class:`AgentNotEndowable` when no
    candidate has positive value.
    """
    favorite = None
    best = 0.0
    for j in candidates:
        val = v.value([j])
        if val > best:
            best = val
            favorite = j
    if favorite is None:
        raise AgentNotEndowable("no candidate item has positive value")
    return EndowedValuation(base=v, favorite=favorite, offset=best)


class StructureViolation(NamedTuple):
    """A witness pair (S, T) breaking submodularity or monotonicity."""

    kind: str  # "submodularity" | "monotonicity"
    left: FrozenSet[str]
    right: FrozenSet[str]


def _local_violations(vals: np.ndarray, mono_tol: float, sub_tol: float) -> Iterator[Tuple[str, int, int]]:
    """Failed local tests of a 2^m-entry table, as (kind, left mask, right mask).

    With d_i(S) = v(S + i) - v(S): monotone is d_i(S) >= -mono_tol, witness
    (S, S + i); submodular is d_i(S + j) <= d_i(S) + sub_tol for i < j,
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
        for s in base[gain < -mono_tol][:1].tolist():
            yield "monotonicity", s, s | 1 << i
        for j in range(i + 1, m):
            axis_j = m - 1 - j
            for s in base.take([0], axis=axis_j)[np.diff(gain, axis=axis_j) > sub_tol][:1].tolist():
                yield "submodularity", s | 1 << i, s | 1 << j


def _mask_set(universe: Sequence[str], mask: int) -> FrozenSet[str]:
    return frozenset(universe[i] for i in range(len(universe)) if mask >> i & 1)


def check_submodular(
    v: Valuation,
    universe: Sequence[str],
    mode: str = "exhaustive",
    trials: int = 256,
    seed: int = 0,
    tol: float = 0.0,
) -> List[StructureViolation]:
    """Screen ``v`` for submodularity and monotonicity violations on ``universe``.

    Exhaustive mode evaluates all 2^|universe| subsets, for at most
    ``ExplicitTable.MAX_ITEMS`` items, and runs the local tests that
    :class:`ExplicitTable` enforces, with at most one witness per item,
    (S, S + i) for monotonicity, and per item pair, (S + i, S + j) for
    submodularity. Sampled mode draws ``trials`` random pairs (S, T) from
    ``seed``. An empty list means no violation was found. ``tol`` is a slack
    on each compared difference, in exhaustive mode each local one, so a
    pairwise violation spread over k local steps may reach k * tol unseen.
    """
    universe = list(universe)
    u = len(universe)
    if mode == "exhaustive":
        if u > ExplicitTable.MAX_ITEMS:
            raise ValueError(f"exhaustive mode supports at most {ExplicitTable.MAX_ITEMS} items, got {u}")
        vals = np.array([v.value(_mask_set(universe, mask)) for mask in range(1 << u)], dtype=float)
        return [
            StructureViolation(kind, _mask_set(universe, left), _mask_set(universe, right))
            for kind, left, right in _local_violations(vals, tol, tol)
        ]
    if mode == "sampled":
        rng = random.Random(seed)
        violations: List[StructureViolation] = []
        for _ in range(trials):
            s_mask = rng.getrandbits(u) if u else 0
            t_mask = rng.getrandbits(u) if u else 0
            s = _mask_set(universe, s_mask)
            t = _mask_set(universe, t_mask)
            vs, vt = v.value(s), v.value(t)
            if vs + vt < v.value(s | t) + v.value(s & t) - tol:
                violations.append(StructureViolation("submodularity", s, t))
            if v.value(s | t) < max(vs, vt) - tol:
                violations.append(StructureViolation("monotonicity", s if vs >= vt else t, s | t))
        return violations
    raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
