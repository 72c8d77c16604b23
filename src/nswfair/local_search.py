"""First-improvement swap search over the unmatched items, with certificates.

The search redistributes a universe J among the agents that value it
positively (called ``abar`` here). Each such agent is scored through the
positively shifted valuation vbar(S) = v(favorite) + v(S), so empty bundles
keep positive value and log-gains are always defined. A single move takes
item j from agent i and hands it to agent k; it is accepted when

    w_i * log(vbar_i(R_i - j) / vbar_i(R_i))
  + w_k * log(vbar_k(R_k + j) / vbar_k(R_k))  >  log(1 + eps_bar)

strictly. Scanning order is fixed (agents by index, items by index, takers by
index) and the first improving move is applied, so runs are deterministic.

Every swap is scored through one gain table, :class:`_Gains`, which memoises
the three logs a gain needs: log vbar_a(R_a) per agent, log vbar_i(R_i - j)
per (giver, item) and log vbar_k(R_k + j) per (taker, item). Each is filled
on first use. Accepting a swap changes only the giver's and the taker's
bundles, so it clears exactly their entries and every other agent keeps its
own. Valuations are pure functions of the set, so a cached log is the float
a fresh evaluation would return and the gains, the scan order and the
certificates do not depend on the cache. The same table backs
:func:`verify_local_opt`, which re-checks every triple on the final bundles,
and :func:`prices`, which turns local optimality into per-item prices with
provable spending caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Tuple

from .errors import AllocationError, InvariantViolation, LemmaViolation
from .instance import Instance
from .valuations import EndowedValuation, endow

__all__ = [
    "epsilon_bar",
    "SwapRecord",
    "LocalOptCertificate",
    "LocalSearchResult",
    "local_search",
    "verify_local_opt",
    "PriceVector",
    "prices",
    "SpendingReport",
    "check_spending",
]

SPENDING_TOLERANCE = 1e-9


def epsilon_bar(eps: float, m: int) -> float:
    """Per-swap improvement threshold: (1 + eps)^(1/m) - 1, computed stably.

    >>> epsilon_bar(0.1, 1)
    0.1
    >>> epsilon_bar(3.0, 2)
    1.0
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if m < 1:
        raise ValueError("m must be at least 1")
    return math.expm1(math.log1p(eps) / m)


@dataclass(frozen=True)
class SwapRecord:
    step: int
    giver: str
    item: str
    taker: str
    log_gain: float


@dataclass(frozen=True)
class LocalOptCertificate:
    """Summary of the final full scan that found no improving move."""

    triples_checked: int
    max_log_gain: float
    threshold: float


@dataclass(frozen=True)
class LocalSearchResult:
    bundles: Dict[str, FrozenSet[str]]
    abar: Tuple[str, ...]
    favorites: Dict[str, str]
    swaps: int
    trace: Tuple[SwapRecord, ...]
    certificate: LocalOptCertificate


class _Context:
    """Shared setup: abar membership and shifted valuations for a universe J."""

    def __init__(self, inst: Instance, universe: Iterable[str]):
        self.inst = inst
        self.universe = inst.sort_items(universe)
        self.abar: List[str] = []
        self.endowed: Dict[str, EndowedValuation] = {}
        for agent, v in zip(inst.agents, inst.valuations):
            if self.universe and v.value(self.universe) > 0.0:
                self.abar.append(agent)
                self.endowed[agent] = endow(v, self.universe)

    def vbar(self, agent: str, bundle: Iterable[str]) -> Tuple[float, float]:
        """vbar_agent(bundle) and its log."""
        value = self.endowed[agent].value(bundle)
        return value, math.log(value)


class _Gains:
    """Swap gains over live bundles, with every vbar memoised until it changes.

    ``bundles`` is owned by the table once handed over: change it only
    through :meth:`move`, which keeps the memo in step.
    """

    def __init__(self, ctx: _Context, bundles: Dict[str, set]):
        self.ctx = ctx
        self.bundles = bundles
        w = ctx.inst.weight_floats
        self.weight = {a: w[ctx.inst.agent_index[a]] for a in ctx.abar}
        self._cur: Dict[str, Tuple[float, float]] = {}
        self._rem: Dict[str, Dict[str, Tuple[float, float]]] = {a: {} for a in ctx.abar}
        self._add: Dict[str, Dict[str, float]] = {a: {} for a in ctx.abar}

    def current(self, agent: str) -> Tuple[float, float]:
        """vbar(R_agent) and its log."""
        hit = self._cur.get(agent)
        if hit is None:
            hit = self._cur[agent] = self.ctx.vbar(agent, self.bundles[agent])
        return hit

    def removed(self, agent: str, item: str) -> Tuple[float, float]:
        """vbar(R_agent - item) and its log."""
        row = self._rem[agent]
        hit = row.get(item)
        if hit is None:
            hit = row[item] = self.ctx.vbar(agent, self.bundles[agent] - {item})
        return hit

    def added(self, agent: str, item: str) -> float:
        """log vbar(R_agent + item)."""
        row = self._add[agent]
        hit = row.get(item)
        if hit is None:
            hit = row[item] = self.ctx.vbar(agent, self.bundles[agent] | {item})[1]
        return hit

    def scan(self) -> Iterator[Tuple[str, str, str, float]]:
        """(giver, item, taker, log-gain) of every swap, in scan order.

        The gain is w_g * (log vbar_g(R_g - j) - log vbar_g(R_g))
        + w_t * (log vbar_t(R_t + j) - log vbar_t(R_t)), with the giver's
        term computed once per item. Stop iterating after a :meth:`move`.
        """
        abar = self.ctx.abar
        w = self.weight
        for giver in abar:
            for item in self.ctx.inst.sort_items(self.bundles[giver]):
                give = w[giver] * (self.removed(giver, item)[1] - self.current(giver)[1])
                for taker in abar:
                    if taker != giver:
                        take = w[taker] * (self.added(taker, item) - self.current(taker)[1])
                        yield giver, item, taker, give + take

    def move(self, giver: str, item: str, taker: str) -> None:
        self.bundles[giver].discard(item)
        self.bundles[taker].add(item)
        for agent in (giver, taker):
            self._cur.pop(agent, None)
            self._rem[agent].clear()
            self._add[agent].clear()


def local_search(inst: Instance, universe: Iterable[str], eps_bar: float) -> LocalSearchResult:
    """Redistribute ``universe`` into an eps_bar-local optimum.

    Agents valuing the universe at zero receive nothing and take no part.
    Initially the smallest-index participating agent holds everything.
    """
    if eps_bar < 0:
        raise ValueError("eps_bar must be nonnegative")
    ctx = _Context(inst, universe)
    bundles: Dict[str, set] = {a: set() for a in inst.agents}
    if ctx.abar:
        bundles[ctx.abar[0]] = set(ctx.universe)
    table = _Gains(ctx, bundles)
    threshold = math.log1p(eps_bar)
    max_swaps = None
    if eps_bar > 0 and ctx.universe:
        max_swaps = int(math.log(len(ctx.universe) + 1) / math.log1p(eps_bar)) + 4
    swaps = 0
    trace: List[SwapRecord] = []
    while True:
        triples = 0
        max_gain = float("-inf")
        for giver, item, taker, gain in table.scan():
            triples += 1
            if gain > max_gain:
                max_gain = gain
            if gain > threshold:
                table.move(giver, item, taker)
                swaps += 1
                trace.append(SwapRecord(swaps, giver, item, taker, gain))
                if max_swaps is not None and swaps > max_swaps:
                    raise InvariantViolation(
                        f"swap count {swaps} exceeded the certified bound {max_swaps}"
                    )
                break
        else:
            break
    return LocalSearchResult(
        bundles={a: frozenset(b) for a, b in bundles.items()},
        abar=tuple(ctx.abar),
        favorites={a: ctx.endowed[a].favorite for a in ctx.abar},
        swaps=swaps,
        trace=tuple(trace),
        certificate=LocalOptCertificate(
            triples_checked=triples, max_log_gain=max_gain, threshold=threshold
        ),
    )


def _gains_for_bundles(inst: Instance, bundles: Mapping[str, Iterable[str]]) -> _Gains:
    union: set = set()
    sets: Dict[str, set] = {a: set() for a in inst.agents}
    for agent, bundle in bundles.items():
        if agent not in inst.agent_index:
            raise AllocationError(f"unknown agent {agent!r}")
        b = set(bundle)
        if union & b:
            raise AllocationError("bundles overlap")
        union |= b
        sets[agent] = b
    ctx = _Context(inst, union)
    holders = {a for a, b in sets.items() if b}
    outside = holders - set(ctx.abar)
    if outside:
        raise AllocationError(
            f"agents {sorted(outside)} hold items but value the universe at zero"
        )
    return _Gains(ctx, sets)


def verify_local_opt(
    inst: Instance, bundles: Mapping[str, Iterable[str]], eps_bar: float
) -> List[Tuple[str, str, str]]:
    """Exhaustively re-check local optimality of ``bundles``.

    Returns every (giver, taker, item) triple whose swap gain strictly beats
    log(1 + eps_bar); the empty list certifies an eps_bar-local optimum. The
    gain table is the one :func:`local_search` scores with, so verifying a
    search output is exact, not a tolerance game.
    """
    table = _gains_for_bundles(inst, bundles)
    threshold = math.log1p(eps_bar)
    return [
        (giver, taker, item)
        for giver, item, taker, gain in table.scan()
        if gain > threshold
    ]


@dataclass(frozen=True)
class PriceVector:
    """Per-item prices extracted from a local optimum.

    Asymmetric variant: p_j = w_i * log(vbar_i(R_i) / vbar_i(R_i - j)).
    Symmetric variant:  p_j = vbar_i(R_i) / vbar_i(R_i - j) - 1, always <= 1.
    """

    variant: str
    values: Dict[str, float]

    def total(self, items: Iterable[str]) -> float:
        return float(sum(self.values[j] for j in sorted(items)))


def prices(inst: Instance, bundles: Mapping[str, Iterable[str]], variant: str) -> PriceVector:
    if variant not in ("asymmetric", "symmetric"):
        raise ValueError(f"variant must be 'asymmetric' or 'symmetric', got {variant!r}")
    table = _gains_for_bundles(inst, bundles)
    values: Dict[str, float] = {}
    for agent in table.ctx.abar:
        with_item, log_with = table.current(agent)
        for item in inst.sort_items(table.bundles[agent]):
            without, log_without = table.removed(agent, item)
            if variant == "asymmetric":
                values[item] = table.weight[agent] * (log_with - log_without)
            else:
                p = with_item / without - 1.0
                if p > 1.0 + SPENDING_TOLERANCE:
                    raise LemmaViolation(
                        f"symmetric price of {item!r} is {p}, above 1", agent=agent
                    )
                values[item] = p
    return PriceVector(variant=variant, values=values)


@dataclass(frozen=True)
class SpendingReport:
    variant: str
    per_agent: Dict[str, Tuple[float, float]]  # agent -> (spent, cap)
    total_spent: float
    total_cap: float


def check_spending(
    inst: Instance, price_vector: PriceVector, bundles: Mapping[str, Iterable[str]]
) -> SpendingReport:
    """Check the budget caps implied by local optimality, with 1e-9 slack.

    Asymmetric prices: each agent spends at most its weight and the whole
    universe costs at most 1. Symmetric prices: each agent spends at most 1
    and the universe costs at most the number of participating agents.
    Violations raise :class:`LemmaViolation` naming the offending agent.
    """
    table = _gains_for_bundles(inst, bundles)
    abar = table.ctx.abar
    per_agent: Dict[str, Tuple[float, float]] = {}
    total = 0.0
    for agent in abar:
        spent = price_vector.total(table.bundles[agent])
        cap = table.weight[agent] if price_vector.variant == "asymmetric" else 1.0
        if spent > cap + SPENDING_TOLERANCE:
            raise LemmaViolation(
                f"agent {agent!r} spends {spent} over cap {cap} ({price_vector.variant})",
                agent=agent,
            )
        per_agent[agent] = (spent, cap)
        total += spent
    total_cap = 1.0 if price_vector.variant == "asymmetric" else float(len(abar))
    if total > total_cap + SPENDING_TOLERANCE:
        raise LemmaViolation(
            f"universe spending {total} exceeds cap {total_cap} ({price_vector.variant})"
        )
    return SpendingReport(
        variant=price_vector.variant,
        per_agent=per_agent,
        total_spent=total,
        total_cap=total_cap,
    )
