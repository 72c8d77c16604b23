"""Plain references for the 1/2-EFX stage, which ``tests/test_efx.py`` checks the solver against.

* ``reference_half_efx_check`` scans every (agent, bundle, item) through ``value()``;
  ``half_efx_check`` skips bundles that monotonicity rules out.
* ``reference_guarantee_half_efx`` runs the singleton upgrades as a rescan,
  ``reference_loose_upgrade``, that asks ``value()`` for each agent it visits on every pass and
  compares one (agent, item) at a time; the solver keeps one list of own values and compares
  them with the whole pool in one numpy step.
* ``reference_envy_cycle_complete`` recomputes the whole n x n table after every rotation and
  for every loose item, where the solver keeps one table in step with the bundles.
"""

from typing import Callable, List, Optional, Set, Tuple

from nswfair.efx import _bundles_by_index, envy_cycle_complete, make_fair_or_efficient
from nswfair.errors import InvariantViolation
from nswfair.instance import Allocation, Instance


def reference_half_efx_check(inst: Instance, alloc: Allocation) -> List[Tuple[str, str, str]]:
    """All witnesses (i, k, j) with v_i(S_i) < v_i(S_k - j) / 2, every bundle scanned."""
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


def reference_guarantee_half_efx(inst: Instance, s_alloc: Allocation) -> Tuple[Allocation, int]:
    """``guarantee_half_efx``'s output and the number of singleton upgrades it made."""
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
    upgrades = 0
    for _ in range(inst.n * inst.m + 2):
        upgrade = reference_loose_upgrade(inst, lambda i: inst.valuations[i].value(bundles[i]), inst.sort_items(pool))
        if upgrade is None:
            break
        i, j = upgrade
        pool |= set(bundles[i])
        pool.discard(j)
        bundles[i] = frozenset({j})
        upgrades += 1
    else:
        raise InvariantViolation("singleton upgrades failed to settle")
    staged = Allocation({a: bundles[i] for i, a in enumerate(inst.agents)})
    return envy_cycle_complete(inst, staged, pool), upgrades


def reference_loose_upgrade(inst: Instance, own: Callable[[int], float], loose: List[str]) -> Optional[Tuple[int, str]]:
    """The first (agent i, loose item j), agents then items in order, with own(i) < v_i({j}), or None:
    one comparison at a time, asking ``own`` for each agent it visits."""
    for i in range(inst.n):
        mine = own(i)
        for j in loose:
            if mine < inst.singleton_array[i][inst.item_index[j]]:
                return i, j
    return None


def reference_envy_cycle_complete(inst: Instance, t_alloc: Allocation, unallocated: Set[str]) -> Allocation:
    """Hand out ``unallocated`` one item at a time to an unenvied agent.

    Precondition: ``unallocated`` holds only instance items outside every
    bundle, and every agent values its bundle at least as much as any
    single unallocated item; this is what keeps 1/2-EFX stable while bundles
    rotate along envy cycles and grow one item at a time.
    """
    bundles = _bundles_by_index(inst, t_alloc)
    n = inst.n
    stray = set(unallocated) - (set(inst.items) - t_alloc.allocated())
    if stray:
        raise ValueError(f"items {sorted(stray)} are unknown or already allocated")
    pool = inst.sort_items(unallocated)
    for i in range(n):
        own = inst.valuations[i].value(bundles[i])
        for j in pool:
            if own < inst.singleton_array[i][inst.item_index[j]]:
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
