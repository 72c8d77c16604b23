"""Problem instances, allocations, and the log-domain welfare objective.

An instance fixes an ordered list of agents with exact rational weights that
sum to one, an ordered list of items, and one valuation oracle per agent.
Allocations map agents to disjoint bundles; the objective is

    nsw_log(S) = sum_i w_i * log v_i(S_i)

with ``float('-inf')`` marking any allocation that leaves some agent at
value zero. All index-based tie-breaking in the solver refers to the agent
and item orders stored here.

Every input file (instance, allocation, experiment config) is parsed by
:func:`read_json` alone; it raises OSError or ValueError on any file it
cannot read, a document nested too deeply included.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

import numpy as np

from .errors import AllocationError
from .valuations import Valuation, as_list, valuation_from_params

__all__ = [
    "FORMAT_VERSION",
    "Instance",
    "Allocation",
    "validate",
    "nsw_log",
    "complete_with_leftovers",
    "instance_to_json",
    "instance_from_json",
    "read_json",
    "load_instance",
    "save_instance",
    "allocation_to_json",
    "allocation_from_json",
    "load_allocation",
    "canonical_json",
]

FORMAT_VERSION = 1

NEG_INF = float("-inf")
LOG2 = math.log(2.0)  # the log-welfare the 1/2-EFX stage may give up
TOLERANCE = 1e-9  # absolute slack of every float check against a cap, a bound or a floor

# Below this many cells a table keeps its Python form, where a numpy form's fixed cost of some
# 20-30 us outweighs what it saves: the welfare map (:func:`welfare_terms`), the matching's
# ranking and the swap search's taker screen and deal (coverage and additive solves up to 6x30
# ran slower in numpy, from 8x40 on faster). Each reads it at call time from this module, so
# one patch switches every form.
SCREEN_MIN_CELLS = 256


def welfare_term(weight: float, value: float) -> float:
    """An agent's term of nsw_log: ``weight * log(value)``, or ``-inf`` when value <= 0."""
    return weight * math.log(value) if value > 0.0 else NEG_INF


def welfare_terms(weights: Sequence[float], values: np.ndarray) -> Union[List[List[float]], np.ndarray]:
    """:func:`welfare_term` of each weight and each value of its row of ``values``: cell by cell below
    :data:`SCREEN_MIN_CELLS` cells, else one ``math.log`` per distinct positive value in numpy."""
    if values.size < SCREEN_MIN_CELLS:
        return [[welfare_term(w, x) for x in row] for w, row in zip(weights, values.tolist())]
    positive = values > 0.0
    distinct, inverse = np.unique(np.where(positive, values, 1.0), return_inverse=True)
    logs = np.array(list(map(math.log, distinct.tolist())))
    table = np.array(weights)[:, None] * logs[inverse.reshape(values.shape)]
    table[~positive] = NEG_INF
    return table


def float_total(terms: Iterable[float]) -> float:
    """0.0 + t_0 + t_1 + ..., left to right: every float total, whatever builtin ``sum()`` does."""
    total = 0.0
    for term in terms:
        total += term
    return total


@dataclass(frozen=True)
class Instance:
    agents: Tuple[str, ...]
    weights: Tuple[Fraction, ...]
    items: Tuple[str, ...]
    valuations: Tuple[Valuation, ...]

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def m(self) -> int:
        return len(self.items)

    @cached_property
    def agent_index(self) -> Dict[str, int]:
        return {a: i for i, a in enumerate(self.agents)}

    @cached_property
    def item_index(self) -> Dict[str, int]:
        return {g: i for i, g in enumerate(self.items)}

    @cached_property
    def weight_floats(self) -> Tuple[float, ...]:
        return tuple(float(w) for w in self.weights)

    @cached_property
    def singleton_array(self) -> np.ndarray:
        """v_i({j}) in one read-only float array, rows by agent and columns by item index, from an empty
        bundle state per valuation, once per instance; an item outside a domain raises UnknownItem."""
        table = np.empty((self.n, self.m))
        for v, row in zip(self.valuations, table):
            v._bundle(self.items)  # a state checks only the bundle it starts from
            row[:] = list(map(v.bundle_state(()).plus, self.items))
        table.flags.writeable = False
        return table

    @cached_property
    def full_values(self) -> Tuple[float, ...]:
        """v_i(M), M all the items, by agent index: one ``value()`` call per valuation, made once
        per instance and read by :func:`validate` and the swap search; an overflow reads inf."""
        row = []
        for v in self.valuations:
            try:
                row.append(v.value(self.items))
            except OverflowError:
                row.append(math.inf)
        return tuple(row)

    def valuation_of(self, agent: str) -> Valuation:
        return self.valuations[self.agent_index[agent]]

    def is_symmetric(self) -> bool:
        return all(w == self.weights[0] for w in self.weights)

    def sort_items(self, items: Iterable[str]) -> List[str]:
        return sorted(items, key=self.item_index.__getitem__)


def validate(inst: Instance) -> List[str]:
    """Return a list of structural problems; empty means the instance is usable."""
    errors: List[str] = []
    if inst.n == 0:
        errors.append("instance needs at least one agent")
    if len(set(inst.agents)) != inst.n:
        errors.append("agent ids must be unique")
    if len(set(inst.items)) != inst.m:
        errors.append("item ids must be unique")
    if len(inst.weights) != inst.n or len(inst.valuations) != inst.n:
        errors.append("weights and valuations must align with the agent list")
        return errors
    for agent, w in zip(inst.agents, inst.weights):
        if w <= 0:
            errors.append(f"weight of agent {agent!r} must be positive")
    if inst.n and sum(inst.weights, Fraction(0)) != 1:
        errors.append("weights must sum to exactly 1")
    item_set = set(inst.items)
    foreign = [agent for agent, v in zip(inst.agents, inst.valuations) if set(v.items) != item_set]
    errors.extend(f"valuation domain of agent {agent!r} does not match the item list" for agent in foreign)
    if foreign:  # v(all items) is read only once every domain is the item list
        return errors
    # Every shifted value vbar(S) = shift + v(S), the shift a singleton value, is at most 2 * v(all items).
    for agent, full in zip(inst.agents, inst.full_values):
        if not math.isfinite(2.0 * full):
            errors.append(f"values of agent {agent!r} overflow: 2 * v(all items) is not finite")
    if errors:  # the singleton table is read only from an otherwise usable instance
        return errors
    nan = np.isnan(inst.singleton_array)
    for i in np.flatnonzero(nan.any(axis=1)).tolist():
        errors.append(f"value of agent {inst.agents[i]!r} for item {inst.items[nan[i].argmax()]!r} is nan")
    return errors


@dataclass(frozen=True)
class Allocation:
    """Agent id -> frozen bundle. Missing agents hold the empty bundle."""

    bundles: Mapping[str, FrozenSet[str]] = field(default_factory=dict)

    @classmethod
    def of(cls, bundles: Mapping[str, Iterable[str]]) -> "Allocation":
        return cls({a: frozenset(b) for a, b in bundles.items()})

    def bundle(self, agent: str) -> FrozenSet[str]:
        return self.bundles.get(agent, frozenset())

    def allocated(self) -> FrozenSet[str]:
        out: set[str] = set()
        for b in self.bundles.values():
            out |= b
        return frozenset(out)

    def is_complete(self, inst: Instance) -> bool:
        return self.allocated() == set(inst.items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        agents = set(self.bundles) | set(other.bundles)
        return all(self.bundle(a) == other.bundle(a) for a in agents)

    def __hash__(self) -> int:
        # Over the non-empty bundles: equal allocations may differ in the empty ones they list.
        return hash(frozenset((a, frozenset(b)) for a, b in self.bundles.items() if b))


def _check_structure(inst: Instance, alloc: Allocation) -> None:
    seen: Dict[str, str] = {}
    item_set = set(inst.items)
    for agent, bundle in alloc.bundles.items():
        if agent not in inst.agent_index:
            raise AllocationError(f"allocation names unknown agent {agent!r}")
        foreign = bundle - item_set
        if foreign:
            raise AllocationError(f"bundle of {agent!r} contains unknown items {sorted(foreign)}")
        for j in bundle:
            if j in seen:
                raise AllocationError(f"item {j!r} appears in bundles of {seen[j]!r} and {agent!r}")
            seen[j] = agent


def nsw_log(inst: Instance, alloc: Allocation) -> float:
    """Weighted log Nash welfare; ``-inf`` when any agent's bundle has value 0."""
    _check_structure(inst, alloc)
    bundles = map(alloc.bundle, inst.agents)
    return float_total(welfare_term(w, v.value(b)) for w, v, b in zip(inst.weight_floats, inst.valuations, bundles))


def complete_with_leftovers(inst: Instance, alloc: Allocation) -> Allocation:
    """Append each unallocated item to the smallest-index agent valuing it most.

    Items are processed in instance order; monotone valuations make the
    result's nsw_log at least the input's.
    """
    _check_structure(inst, alloc)
    bundles = {a: set(alloc.bundle(a)) for a in inst.agents}
    done = alloc.allocated()
    for c, j in enumerate(inst.items):
        if j not in done:
            column = inst.singleton_array[:, c].tolist()
            bundles[inst.agents[column.index(max(column))]].add(j)
    return Allocation.of(bundles)


# ---------------------------------------------------------------------------
# JSON file formats (format_version 1)
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, fixed indentation, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def instance_to_json(inst: Instance) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "agents": [
            {"id": a, "weight": [w.numerator, w.denominator]}
            for a, w in zip(inst.agents, inst.weights)
        ],
        "items": list(inst.items),
        "valuations": [
            {"agent": a, "kind": v.kind, "params": v.params()}
            for a, v in zip(inst.agents, inst.valuations)
        ],
    }


@contextmanager
def malformed(what: str) -> Iterator[None]:
    """Turn the errors a JSON document of the wrong shape raises while it is read into ValueError."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed {what}: {type(exc).__name__}: {exc}") from None


def _weight(pair) -> Fraction:
    if not (isinstance(pair, list) and len(pair) == 2 and all(type(x) is int for x in pair) and pair[1]):
        raise ValueError(f"a weight must be a pair of JSON integers with a nonzero denominator, got {pair!r}")
    return Fraction(*pair)


def instance_from_json(doc: Mapping) -> Instance:
    with malformed("instance"):
        if doc.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {doc.get('format_version')!r}")
        entries, valuation_docs = as_list(doc["agents"], "agents"), as_list(doc["valuations"], "valuations")
        agents = tuple(str(entry["id"]) for entry in entries)
        weights = tuple(_weight(entry["weight"]) for entry in entries)
        items = tuple(str(j) for j in as_list(doc["items"], "items"))
        keys = [str(entry["agent"]) for entry in valuation_docs]
        wrong = sorted({a for a in keys + list(agents) if keys.count(a) != (1 if a in agents else 0)})
        if wrong:
            raise ValueError(f"valuations must name each listed agent once and no other agent; wrong for {wrong}")
        by_agent = dict(zip(keys, valuation_docs))
        valuations = tuple(
            valuation_from_params(by_agent[a]["kind"], by_agent[a]["params"]) for a in agents
        )
    return Instance(agents=agents, weights=weights, items=items, valuations=valuations)


def read_json(path):
    """The JSON document in file ``path``; one nested too deeply for the parser is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("document is nested too deeply") from None


def load_instance(path) -> Instance:
    return instance_from_json(read_json(path))


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(instance_to_json(inst)))


def allocation_to_json(inst: Instance, alloc: Allocation) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "bundles": {a: inst.sort_items(alloc.bundle(a)) for a in inst.agents},
    }


def allocation_from_json(doc: Mapping) -> Allocation:
    with malformed("allocation"):
        if doc.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {doc.get('format_version')!r}")
        bundles = doc["bundles"].items()
        return Allocation.of({str(a): [str(j) for j in as_list(b, f"bundle of {a!r}")] for a, b in bundles})


def load_allocation(path) -> Allocation:
    return allocation_from_json(read_json(path))
