"""Seeded random instances with small integer parameters.

All draws go through one ``random.Random(seed)`` in a fixed order, so a
(family, n, m, seed, weight_mode) tuple always produces the same instance
and the CLI can emit byte-identical files. Integer parameters stay in
[0, 100], which keeps every shipped family exact in float arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from .instance import Instance
from .valuations import EXACT_FAMILIES, Additive, BudgetAdditive, Coverage, PartitionMatroidRank, Valuation

__all__ = ["FAMILIES", "WEIGHT_MODES", "random_instance"]

FAMILIES = tuple(cls.kind for cls in EXACT_FAMILIES)
WEIGHT_MODES = ("symmetric", "random_rational")
# Largest n * m generated: a coverage instance takes about 433 bytes a cell, so 0.45 GB here.
MAX_CELLS = 10**6


def _weights(rng: random.Random, n: int, mode: str) -> Tuple[Fraction, ...]:
    if mode == "symmetric":
        return tuple(Fraction(1, n) for _ in range(n))
    if mode == "random_rational":
        parts = [rng.randint(1, 10) for _ in range(n)]
        total = sum(parts)
        return tuple(Fraction(p, total) for p in parts)
    raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}, got {mode!r}")


def _valuation(rng: random.Random, family: str, items: List[str]) -> Valuation:
    m = len(items)
    if family == "additive":
        return Additive({j: rng.randint(0, 100) for j in items})
    if family == "budget_additive":
        values = {j: rng.randint(0, 100) for j in items}
        return BudgetAdditive(values, cap=rng.randint(0, 150))
    if family == "coverage":
        ground = [f"u{t}" for t in range(m + 2)]
        covers = {j: rng.sample(ground, rng.randint(0, min(3, len(ground)))) for j in items}
        weights = {e: rng.randint(0, 100) for e in ground}
        return Coverage(covers, weights)
    if family == "partition_matroid_rank":
        labels = [f"c{t}" for t in range(rng.randint(1, max(1, min(3, m))))]
        classes = {j: rng.choice(labels) for j in items}
        capacities = {lab: rng.randint(1, 2) for lab in labels}
        return PartitionMatroidRank(classes, capacities, scale=rng.randint(1, 10))
    raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")


def random_instance(
    family: str, n: int, m: int, seed: int, weight_mode: str = "symmetric"
) -> Instance:
    if n < 1:
        raise ValueError("n must be at least 1")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if n * max(m, 1) > MAX_CELLS:
        raise ValueError(f"{n} agents and {m} items exceed the generator's limit of n * m <= {MAX_CELLS} cells")
    rng = random.Random(seed)
    agents = [f"a{i}" for i in range(n)]
    items = [f"g{j}" for j in range(m)]
    weights = _weights(rng, n, weight_mode)
    valuations = tuple(_valuation(rng, family, items) for _ in agents)
    return Instance(agents=tuple(agents), weights=weights, items=tuple(items), valuations=valuations)
