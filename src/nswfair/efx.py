"""Fairness post-processing: trade welfare for a 1/2-EFX guarantee.

An allocation is 1/2-EFX when no agent values another bundle, minus any
single item of it, at more than twice their own bundle's value. The driver
:func:`guarantee_half_efx` starts from any allocation, repeatedly calls
:func:`make_fair_or_efficient` (which either certifies a 1/2-EFX solution at
half the welfare or strictly shrinks the allocated support without losing
welfare), then tops up with singleton upgrades and envy-cycle completion.

Equal weights are required, since the fairness guarantees hold for
symmetric weighting only; welfare is :func:`nsw_log`.

:func:`make_fair_or_efficient` first scans its input for a 1/2-EFX witness,
stopping at the first. With none, every agent has its self-edge in the graph
(valuations are monotone), the lex matching can only be the identity, and
the input is returned as it is, without building the graph. Only each
call's input is scanned, not the bundles of each trim pass. When the input
is complete, :func:`guarantee_half_efx` then evaluates no own value, since
there is no loose item to upgrade to: a complete input that is already
1/2-EFX costs only the scan's ``value()`` calls, n^2 when no agent values
another bundle at more than twice its own.

:func:`build_feasibility_graph` reads v_i(S_k) and v_i(S_k - j) from one
bundle state per (agent, bundle) (:meth:`Valuation.bundle_state`), bit for
bit equal to ``value()``; it skips the items of a bundle worth less than the
best removal found so far, as monotonicity keeps each of their removals below
it. The trim test calls ``value()`` twice a pass. Each loose-item scan is one
numpy comparison with the singleton table (:attr:`Instance.singleton_array`).
Envy-cycle completion keeps one table v_i(S_k), and the bundle states it is
read from, in step with the bundles: a rotation permutes their columns, and
an item handed out is added to one column's states. The independent checker
:func:`half_efx_check` calls ``value()`` on sets and relies on monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Literal, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import InvariantViolation, LemmaViolation
from .instance import LOG2, TOLERANCE, Allocation, Instance, _check_structure, nsw_log
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


def _bundles_by_index(inst: Instance, alloc: Allocation) -> List[FrozenSet[str]]:
    _check_structure(inst, alloc)
    return [alloc.bundle(a) for a in inst.agents]


def _half_efx_witnesses(inst: Instance, bundles: Sequence[FrozenSet[str]]) -> Iterator[Tuple[str, str, str]]:
    """The witnesses (i, k, j) with v_i(S_i) < v_i(S_k - j) / 2, agents, bundles and items in index
    order, found lazily: a caller that stops at the first one makes no ``value()`` call past it. Valuations
    must be monotone: then v_i(S_k - j) <= v_i(S_k), and a bundle with v_i(S_i) >= v_i(S_k) / 2 is skipped."""
    for i, (agent, v) in enumerate(zip(inst.agents, inst.valuations)):
        own = v.value(bundles[i])
        for k in range(inst.n):
            if k == i or own >= 0.5 * v.value(bundles[k]):
                continue
            for j in inst.sort_items(bundles[k]):
                if own < 0.5 * v.value(bundles[k] - {j}):
                    yield agent, inst.agents[k], j


def half_efx_check(inst: Instance, alloc: Allocation) -> List[Tuple[str, str, str]]:
    """All witnesses (i, k, j) with v_i(S_i) < v_i(S_k - j) / 2; empty means 1/2-EFX. Valuations
    must be monotone (see :func:`_half_efx_witnesses`)."""
    return list(_half_efx_witnesses(inst, _bundles_by_index(inst, alloc)))


@dataclass(frozen=True)
class FeasibilityGraph:
    """Agent-to-bundle edges; bundle node k is owned by agent k.

    An agent connects to its own bundle when that bundle is already half as
    good as the best single-item-removal bundle anywhere, and to a foreign
    bundle when taking it whole would at least double the agent's value and
    beat every single-item removal. Every agent has degree >= 1.
    ``best_removal[i]`` is agent i's first best single-item removal (k, j,
    v_i(S_k - j)), bundles by index and items in index order, or None when
    every bundle is empty.
    """

    edges: FrozenSet[Tuple[int, int]]
    best_removal: Tuple[Optional[Tuple[int, str, float]], ...]


def build_feasibility_graph(inst: Instance, bundles: Sequence[FrozenSet[str]]) -> FeasibilityGraph:
    n = inst.n
    rows = [inst.sort_items(bundle) for bundle in bundles]
    edges: Set[Tuple[int, int]] = set()
    best_removal: List[Optional[Tuple[int, str, float]]] = []
    for i in range(n):
        states = [inst.valuations[i].bundle_state(bundle) for bundle in bundles]
        values = [state.value() for state in states]
        best: Optional[Tuple[int, str, float]] = None
        for k in range(n):
            if best is not None and values[k] < best[2]:
                continue  # v_i(S_k - j) <= v_i(S_k) by monotonicity: no item here beats the best
            for j in rows[k]:
                val = states[k].minus(j)
                if best is None or val > best[2]:
                    best = (k, j, val)
        best_removal.append(best)
        removal_max = max(0.0, best[2]) if best else 0.0
        own, before = values[i], len(edges)
        if own >= 0.5 * removal_max:
            edges.add((i, i))
        for k in range(n):
            if k == i:
                continue
            whole = values[k]
            if whole > 2.0 * own and whole >= removal_max:
                edges.add((i, k))
        if len(edges) == before:
            raise InvariantViolation(f"agent {inst.agents[i]!r} has no feasible bundle edge")
    return FeasibilityGraph(edges=frozenset(edges), best_removal=tuple(best_removal))


@dataclass(frozen=True)
class FairnessOutcome:
    """Either a 1/2-EFX allocation at >= half the input welfare, or an
    allocation whose support strictly shrank without losing welfare."""

    tag: Literal["half_efx", "support_shrunk"]
    allocation: Allocation


def _outcome(inst: Instance, tag: str, bundles: Sequence[FrozenSet[str]], t_alloc: Allocation) -> FairnessOutcome:
    alloc = Allocation({a: bundles[i] for i, a in enumerate(inst.agents)})
    before = nsw_log(inst, t_alloc)
    after = nsw_log(inst, alloc)
    if tag == "half_efx":
        if not after >= before - LOG2 - TOLERANCE:
            raise LemmaViolation(f"welfare dropped below half: log NSW {before} -> {after}")
        if half_efx_check(inst, alloc):
            raise LemmaViolation("claimed 1/2-EFX output fails the checker")
    else:
        if not alloc.allocated() < t_alloc.allocated():
            raise LemmaViolation("support did not strictly shrink")
        if not after >= before - TOLERANCE:
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
    while the product welfare cannot drop. Requires equal weights.

    An input with no 1/2-EFX witness (:func:`_half_efx_witnesses`, stopped at
    the first) is returned as it is, without the graph, the matching or the
    outcome checks. This is the loop's own answer. Valuations are monotone and
    nonnegative, so v_i(T_i - j) <= v_i(T_i) <= 2 v_i(T_i): no removal from an
    agent's own bundle is worth more than twice it, and the scan's skip of a
    bundle k with v_i(T_i) >= v_i(T_k) / 2 loses no witness. So "no witness"
    holds exactly when v_i(T_i) >= removal_max / 2 for every agent i, the
    maximum taken over every bundle, own included: when every agent has its
    self-edge in the first pass's graph (whose reads equal ``value()`` bit for
    bit). No bundle is trimmed yet, and
    :func:`solve_lex_assignment` puts rows kept on their own column above
    cardinality, so the identity, the one matching with n self-edges, is its
    unique optimum: the graph path would return T, whose welfare is the
    input's and which the checker has just passed.
    """
    if not inst.is_symmetric():
        raise ValueError("the fairness guarantee needs equal agent weights")
    t_bundles = _bundles_by_index(inst, t_alloc)
    n, m = inst.n, inst.m
    if any(not b for b in t_bundles):
        # Zero welfare on input: the all-empty allocation is trivially 1/2-EFX.
        empty = [frozenset()] * n
        return _outcome(inst, "half_efx", empty, t_alloc)
    if next(_half_efx_witnesses(inst, t_bundles), None) is None:
        return FairnessOutcome("half_efx", Allocation(dict(zip(inst.agents, t_bundles))))
    s_bundles: List[FrozenSet[str]] = list(t_bundles)
    for _ in range(m + 2):
        graph = build_feasibility_graph(inst, s_bundles)
        trimmed = {k for k in range(n) if s_bundles[k] < t_bundles[k]}
        rho = solve_lex_assignment(n_rows=n, n_cols=n, edges=set(graph.edges), must_match=trimmed)
        if all(c is not None for c in rho):
            result = [s_bundles[rho[i]] for i in range(n)]
            return _outcome(inst, "half_efx", result, t_alloc)
        first_unmatched = next(i for i in range(n) if rho[i] is None)
        best = graph.best_removal[first_unmatched]
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
        while path[-1] != h and path[-1] in rho_inv:
            path.append(rho_inv[path[-1]])
        result = list(t_bundles)
        result[first_unmatched] = s_bundles[h] - {g_h}
        for f in range(1, len(path)):
            result[path[f]] = s_bundles[path[f - 1]]
        if path[-1] != h:
            result[h] = t_bundles[h] - (s_bundles[h] - {g_h})
        return _outcome(inst, "support_shrunk", result, t_alloc)
    raise InvariantViolation("trim loop ran past the item count")


def _find_cycle(adj: Sequence[Sequence[int]]) -> Optional[List[int]]:
    """The first cycle a depth-first walk from each node in index order meets, or None."""
    state = [0] * len(adj)  # 0 fresh, 1 on the trail, 2 done
    for start in range(len(adj)):
        if state[start]:
            continue
        state[start] = 1
        trail, walks = [start], [iter(adj[start])]
        while walks:
            nxt = next(walks[-1], None)
            if nxt is None:
                state[trail.pop()] = 2
                walks.pop()
            elif state[nxt] == 1:
                return trail[trail.index(nxt):]
            elif state[nxt] == 0:
                state[nxt] = 1
                trail.append(nxt)
                walks.append(iter(adj[nxt]))
    return None


def _loose_upgrade(inst: Instance, own: Sequence[float], loose: Sequence[str]) -> Optional[Tuple[int, str]]:
    """The first (agent i, loose item j), agents then items in order, with own[i] < v_i({j}), or None."""
    if not loose:
        return None
    above = np.array(own, dtype=float)[:, None] < inst.singleton_array.take([inst.item_index[j] for j in loose], axis=1)
    i, c = divmod(int(above.argmax()), len(loose))
    return (i, loose[c]) if above[i, c] else None


def envy_cycle_complete(inst: Instance, t_alloc: Allocation, unallocated: Set[str]) -> Allocation:
    """Hand out ``unallocated`` one item at a time to an unenvied agent.

    Precondition: ``unallocated`` holds only instance items outside every
    bundle, and every agent values its bundle at least as much as any
    single unallocated item; this is what keeps 1/2-EFX stable while bundles
    rotate along envy cycles and grow one item at a time.

    One table ``values[i][k] = v_i(S_k)``, read from n^2 bundle states when the
    pool is non-empty, answers the precondition and the envy graph. A rotation
    permutes the columns of both with the bundles; an item given to k is added to
    column k's states, and the table reads their values.
    """
    bundles = _bundles_by_index(inst, t_alloc)
    n = inst.n
    stray = set(unallocated) - (set(inst.items) - t_alloc.allocated())
    if stray:
        raise ValueError(f"items {sorted(stray)} are unknown or already allocated")
    pool = inst.sort_items(unallocated)
    states = [[v.bundle_state(bundle) for bundle in bundles] for v in inst.valuations] if pool else []
    values = [[state.value() for state in row] for row in states]
    upgrade = _loose_upgrade(inst, [row[i] for i, row in enumerate(values)], pool)
    if upgrade:
        i, j = upgrade
        raise ValueError(f"agent {inst.agents[i]!r} values loose item {j!r} above its bundle")
    rotations = 0
    max_rotations = n * (len(pool) + n + 1) + 1
    for j in pool:
        while True:
            adj = [[k for k in range(n) if k != i and row[i] < row[k]] for i, row in enumerate(values)]
            cycle = _find_cycle(adj)
            if cycle is None:
                break
            for seq in (bundles, *values, *states):
                shifted = [seq[k] for k in cycle[1:] + cycle[:1]]
                for k, x in zip(cycle, shifted):
                    seq[k] = x
            rotations += 1
            if rotations > max_rotations:
                raise InvariantViolation("envy-cycle elimination failed to make progress")
        envied = {k for row in adj for k in row}
        source = next(i for i in range(n) if i not in envied)
        bundles[source] = bundles[source] | {j}
        for row, state_row in zip(values, states):
            state_row[source].add(j)
            row[source] = state_row[source].value()
    return Allocation({a: bundles[i] for i, a in enumerate(inst.agents)})


def guarantee_half_efx(inst: Instance, s_alloc: Allocation) -> Allocation:
    """Complete 1/2-EFX allocation worth at least half of ``s_alloc``.

    Requires equal weights. Alternates support-shrinking passes until one
    returns a 1/2-EFX core, upgrades any agent to a loose single item it
    prefers over its whole bundle, then completes with envy cycles.
    """
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
    own = [v.value(bundle) for v, bundle in zip(inst.valuations, bundles)] if pool else []
    for _ in range(inst.n * inst.m + 2):
        upgrade = _loose_upgrade(inst, own, inst.sort_items(pool))
        if upgrade is None:
            break
        i, j = upgrade
        pool |= bundles[i]
        pool.discard(j)
        bundles[i] = frozenset({j})
        own[i] = inst.singleton_array.item(i, inst.item_index[j])
    else:
        raise InvariantViolation("singleton upgrades failed to settle")
    staged = Allocation({a: bundles[i] for i, a in enumerate(inst.agents)})
    return envy_cycle_complete(inst, staged, pool)
