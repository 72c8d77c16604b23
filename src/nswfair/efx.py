"""Fairness post-processing: trade welfare for a 1/2-EFX guarantee.

An allocation is 1/2-EFX when no agent values another bundle, minus any
single item of it, at more than twice their own bundle's value. The driver
:func:`guarantee_half_efx` starts from any allocation, repeatedly calls
:func:`make_fair_or_efficient` (which either certifies a 1/2-EFX solution at
half the welfare or strictly shrinks the allocated support without losing
welfare), then tops up with singleton upgrades and envy-cycle completion.

Welfare here is always measured with equal weights 1/n, matching the
fairness guarantees, which hold for symmetric weighting only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Literal, Mapping, Optional, Sequence, Set, Tuple

from .errors import InvariantViolation, LemmaViolation
from .instance import Allocation, Instance
from .matching import solve_lex_assignment

__all__ = [
    "half_efx_check",
    "FeasibilityGraph",
    "build_feasibility_graph",
    "FairnessOutcome",
    "make_fair_or_efficient",
    "envy_cycle_complete",
    "guarantee_half_efx",
]

_LOG_HALF = -math.log(2.0)
_TOL = 1e-9


def _sym_nsw_log(inst: Instance, bundles: Sequence[FrozenSet[str]]) -> float:
    total = 0.0
    for i in range(inst.n):
        val = inst.valuations[i].value(bundles[i])
        if val <= 0.0:
            return float("-inf")
        total += math.log(val)
    return total / inst.n


def _bundles_by_index(inst: Instance, alloc: Allocation) -> List[FrozenSet[str]]:
    return [alloc.bundle(a) for a in inst.agents]


def half_efx_check(inst: Instance, alloc: Allocation) -> List[Tuple[str, str, str]]:
    """All witnesses (i, k, j) with v_i(S_i) < v_i(S_k - j) / 2; empty means 1/2-EFX."""
    bundles = _bundles_by_index(inst, alloc)
    violations: List[Tuple[str, str, str]] = []
    for i, agent in enumerate(inst.agents):
        own = inst.valuations[i].value(bundles[i])
        for k in range(inst.n):
            if k == i:
                continue
            for j in inst.sort_items(bundles[k]):
                if own < 0.5 * inst.valuations[i].value(bundles[k] - {j}):
                    violations.append((agent, inst.agents[k], j))
    return violations


@dataclass(frozen=True)
class FeasibilityGraph:
    """Agent-to-bundle edges; bundle node k is owned by agent k.

    An agent connects to its own bundle when that bundle is already half as
    good as the best single-item-removal bundle anywhere, and to a foreign
    bundle when taking it whole would at least double the agent's value and
    beat every single-item removal. Every agent has degree >= 1.
    """

    n: int
    bundles: Tuple[FrozenSet[str], ...]
    edges: FrozenSet[Tuple[int, int]]

    def neighbors(self, agent: int) -> List[int]:
        return sorted(c for (i, c) in self.edges if i == agent)


def build_feasibility_graph(inst: Instance, bundles: Sequence[FrozenSet[str]]) -> FeasibilityGraph:
    n = inst.n
    edges: Set[Tuple[int, int]] = set()
    for i in range(n):
        v = inst.valuations[i]
        removal_max = 0.0
        for k in range(n):
            for j in bundles[k]:
                removal_max = max(removal_max, v.value(bundles[k] - {j}))
        own = v.value(bundles[i])
        if own >= 0.5 * removal_max:
            edges.add((i, i))
        for k in range(n):
            if k == i:
                continue
            whole = v.value(bundles[k])
            if whole > 2.0 * own and whole >= removal_max:
                edges.add((i, k))
        if not any(e[0] == i for e in edges):
            raise InvariantViolation(f"agent {inst.agents[i]!r} has no feasible bundle edge")
    return FeasibilityGraph(n=n, bundles=tuple(bundles), edges=frozenset(edges))


@dataclass(frozen=True)
class FairnessOutcome:
    """Either a 1/2-EFX allocation at >= half the input welfare, or an
    allocation whose support strictly shrank without losing welfare."""

    tag: Literal["half_efx", "support_shrunk"]
    allocation: Allocation


def _outcome(
    inst: Instance,
    tag: str,
    bundles: Sequence[FrozenSet[str]],
    input_bundles: Sequence[FrozenSet[str]],
) -> FairnessOutcome:
    alloc = Allocation({a: bundles[i] for i, a in enumerate(inst.agents)})
    before = _sym_nsw_log(inst, input_bundles)
    after = _sym_nsw_log(inst, bundles)
    if tag == "half_efx":
        if not after >= before + _LOG_HALF - _TOL:
            raise LemmaViolation(f"welfare dropped below half: log NSW {before} -> {after}")
        if half_efx_check(inst, alloc):
            raise LemmaViolation("claimed 1/2-EFX output fails the checker")
    else:
        support_in = frozenset().union(*input_bundles) if input_bundles else frozenset()
        support_out = frozenset().union(*bundles) if bundles else frozenset()
        if not support_out < support_in:
            raise LemmaViolation("support did not strictly shrink")
        if not after >= before - _TOL:
            raise LemmaViolation(f"support shrink lost welfare: log NSW {before} -> {after}")
    return FairnessOutcome(tag=tag, allocation=alloc)


def make_fair_or_efficient(inst: Instance, t_alloc: Allocation) -> FairnessOutcome:
    """One pass of trim-then-match over partial allocation T.

    Maintains working bundles S_i, with S_i subseteq T_i shrinking over the
    loop. Each iteration matches agents to feasible bundles, preferring
    already-trimmed bundles and then self-edges. A perfect matching yields a
    1/2-EFX result; otherwise the best single-item removal for the first
    unmatched agent is either trimmed away (when its owner keeps half of
    T_h), or an alternating path reallocation strictly shrinks the support
    while the product welfare cannot drop.
    """
    t_bundles = _bundles_by_index(inst, t_alloc)
    n, m = inst.n, inst.m
    if any(not b for b in t_bundles):
        # Zero welfare on input: the all-empty allocation is trivially 1/2-EFX.
        empty = [frozenset()] * n
        return _outcome(inst, "half_efx", empty, t_bundles)
    s_bundles: List[FrozenSet[str]] = list(t_bundles)
    for _ in range(m + 2):
        graph = build_feasibility_graph(inst, s_bundles)
        trimmed = {k for k in range(n) if s_bundles[k] < t_bundles[k]}
        rho = solve_lex_assignment(
            n_rows=n,
            n_cols=n,
            edges=set(graph.edges),
            must_match=trimmed,
            prefer_self={i: i for i in range(n)},
        )
        if all(c is not None for c in rho):
            result = [s_bundles[rho[i]] for i in range(n)]
            return _outcome(inst, "half_efx", result, t_bundles)
        first_unmatched = next(i for i in range(n) if rho[i] is None)
        v1 = inst.valuations[first_unmatched]
        best: Optional[Tuple[int, str, float]] = None
        for k in range(n):
            for g in inst.sort_items(s_bundles[k]):
                val = v1.value(s_bundles[k] - {g})
                if best is None or val > best[2]:
                    best = (k, g, val)
        if best is None:
            raise InvariantViolation("no agent holds an item while one agent is unmatched")
        h, g_h, _ = best
        v_h = inst.valuations[h]
        if v_h.value(s_bundles[h] - {g_h}) >= 0.5 * v_h.value(t_bundles[h]):
            s_bundles[h] = s_bundles[h] - {g_h}
            continue
        # Alternating path: own bundle, then the agent matched to it, repeated.
        rho_inv = {c: i for i, c in enumerate(rho) if c is not None}
        path = [first_unmatched]
        while True:
            bundle_node = path[-1]
            if bundle_node == h:
                ends_at_h = True
                break
            nxt = rho_inv.get(bundle_node)
            if nxt is None:
                ends_at_h = False
                break
            path.append(nxt)
        result = list(t_bundles)
        result[first_unmatched] = s_bundles[h] - {g_h}
        for f in range(1, len(path)):
            result[path[f]] = s_bundles[path[f - 1]]
        if not ends_at_h:
            result[h] = t_bundles[h] - (s_bundles[h] - {g_h})
        return _outcome(inst, "support_shrunk", result, t_bundles)
    raise InvariantViolation("trim loop ran past the item count")


def envy_cycle_complete(inst: Instance, t_alloc: Allocation, unallocated: Set[str]) -> Allocation:
    """Hand out ``unallocated`` one item at a time to an unenvied agent.

    Precondition: every agent values its bundle at least as much as any
    single unallocated item; this is what keeps 1/2-EFX stable while bundles
    rotate along envy cycles and grow one item at a time.
    """
    bundles = _bundles_by_index(inst, t_alloc)
    n = inst.n
    pool = inst.sort_items(unallocated)
    for i in range(n):
        own = inst.valuations[i].value(bundles[i])
        for j in pool:
            if own < inst.valuations[i].value([j]):
                raise ValueError(
                    f"agent {inst.agents[i]!r} values loose item {j!r} above its bundle"
                )

    def envy_edges() -> List[List[int]]:
        values = [[inst.valuations[i].value(bundles[k]) for k in range(n)] for i in range(n)]
        return [
            [k for k in range(n) if k != i and values[i][i] < values[i][k]]
            for i in range(n)
        ]

    def find_cycle(adj: List[List[int]]) -> Optional[List[int]]:
        color = [0] * n  # 0 fresh, 1 on stack, 2 done
        for start in range(n):
            if color[start]:
                continue
            stack: List[Tuple[int, int]] = [(start, 0)]
            trail: List[int] = []
            color[start] = 1
            trail.append(start)
            while stack:
                node, ptr = stack[-1]
                if ptr < len(adj[node]):
                    stack[-1] = (node, ptr + 1)
                    nxt = adj[node][ptr]
                    if color[nxt] == 1:
                        return trail[trail.index(nxt):]
                    if color[nxt] == 0:
                        color[nxt] = 1
                        trail.append(nxt)
                        stack.append((nxt, 0))
                else:
                    color[node] = 2
                    trail.pop()
                    stack.pop()
        return None

    rotations = 0
    max_rotations = n * (len(pool) + n + 1) + 1
    while pool:
        while True:
            adj = envy_edges()
            cycle = find_cycle(adj)
            if cycle is None:
                break
            shifted = [bundles[cycle[(t + 1) % len(cycle)]] for t in range(len(cycle))]
            for t, agent in enumerate(cycle):
                bundles[agent] = shifted[t]
            rotations += 1
            if rotations > max_rotations:
                raise InvariantViolation("envy-cycle elimination failed to make progress")
        indegree = [0] * n
        for i in range(n):
            for k in adj[i]:
                indegree[k] += 1
        source = next(i for i in range(n) if indegree[i] == 0)
        bundles[source] = bundles[source] | {pool.pop(0)}
    return Allocation({a: bundles[i] for i, a in enumerate(inst.agents)})


def guarantee_half_efx(inst: Instance, s_alloc: Allocation) -> Allocation:
    """Complete 1/2-EFX allocation worth at least half of ``s_alloc``.

    Requires equal weights. Alternates support-shrinking passes until one
    returns a 1/2-EFX core, upgrades any agent to a loose single item it
    prefers over its whole bundle, then completes with envy cycles.
    """
    if not inst.is_symmetric():
        raise ValueError("the fairness guarantee needs equal agent weights")
    current = s_alloc
    for _ in range(inst.m + 2):
        outcome = make_fair_or_efficient(inst, current)
        current = outcome.allocation
        if outcome.tag == "half_efx":
            break
    else:
        raise InvariantViolation("support shrinking failed to reach a fair core")
    bundles = _bundles_by_index(inst, current)
    pool = set(inst.items) - set().union(*bundles)
    for _ in range(inst.n * inst.m + 2):
        upgrade = None
        for i in range(inst.n):
            own = inst.valuations[i].value(bundles[i])
            for j in inst.sort_items(pool):
                if own < inst.valuations[i].value([j]):
                    upgrade = (i, j)
                    break
            if upgrade:
                break
        if upgrade is None:
            break
        i, j = upgrade
        pool |= set(bundles[i])
        pool.discard(j)
        bundles[i] = frozenset({j})
    else:
        raise InvariantViolation("singleton upgrades failed to settle")
    staged = Allocation({a: bundles[i] for i, a in enumerate(inst.agents)})
    return envy_cycle_complete(inst, staged, pool)
