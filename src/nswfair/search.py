"""First-improvement swap search over the unmatched items, with certificates.

The search redistributes a universe J among the agents with a positive
singleton value in J (``abar``; for monotone submodular v with v(empty) = 0,
those with v(J) > 0). Each is scored through the shifted valuation
vbar(S) = v(favorite) + v(S), its favorite being its first item of J of
largest singleton value, so empty bundles keep positive value and log-gains
are defined. A move takes item j from agent i to agent k; it is accepted when

    w_i * log(vbar_i(R_i - j) / vbar_i(R_i))
  + w_k * log(vbar_k(R_k + j) / vbar_k(R_k))  >  log(1 + eps_bar)

strictly. Scanning order is fixed (agents by index, items by index, takers by
index) and the first improving move is applied, so runs are deterministic.

Every swap is scored through one gain table, :class:`_Gains`, from two
memos: vbar_i(R_i - j) and its log per (giver, item), which give the giver's
term w_i * log(vbar_i(R_i - j) / vbar_i(R_i)), and the taker's term
w_k * log(vbar_k(R_k + j) / vbar_k(R_k)) per (taker, item). Each is filled on
first use, from a bundle state per agent (:meth:`Valuation.bundle_state`)
that answers v(R), v(R + j) and v(R - j) from running counts instead of
re-evaluating the whole bundle. Accepting a swap changes only the giver's and
the taker's bundles, so it updates exactly their states and clears exactly
their memo entries; every other agent keeps its own.

After a swap the scan walks again from the top, but keeps a frontier: the
swap count at which each agent's bundle last changed, and the swap count at
which each item's position (its holder, the item) last passed with no
improving triple. At a position whose giver is unchanged since it passed,
only the takers changed since are scored; every other triple there has the
same two bundles, so the same memoised gain, as when it was found
non-improving. The first improving triple found is therefore the one a full
restart would find. Each state is bit for bit equal to ``value()``, which is
correctly rounded and so independent of summation order, so the gains, the
swap trace and the certificates are the floats a fresh evaluation gives. One
full scan after the last swap, all of it memo hits, certifies the local
optimum.

One fresh table over the final bundles, :func:`certificate_table`, backs
:func:`verify_local_opt`, which re-checks every triple, and then :func:`prices`,
which reads the recheck's vbar(R) and vbar(R - j) into both price vectors with
provable spending caps. Its states call ``value()`` on sets, so the recheck
depends on neither the search's memo nor the family states. The certificates
are records: neither :func:`prices` nor :func:`check_spending` raises on what
it finds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple

from .errors import AllocationError, InvariantViolation
from .instance import NEG_INF, TOLERANCE, Allocation, Instance, _check_structure, float_total
from .valuations import BundleState, Valuation

__all__ = [
    "epsilon_bar",
    "swap_bound",
    "SwapRecord",
    "LocalOptCertificate",
    "LocalSearchResult",
    "local_search",
    "certificate_table",
    "verify_local_opt",
    "PriceVector",
    "prices",
    "SpendingReport",
    "check_spending",
]

_Swap = Tuple[str, str, str, float]  # (giver, item, taker, log-gain)


def swap_bound(size: int, eps_bar: float) -> float:
    """Swap budget when each vbar grows at most ``size``-fold and each swap gains over log1p(eps_bar).

    >>> swap_bound(1, 0.5)
    1.0
    """
    return math.log(size) / math.log1p(eps_bar) + 1.0


def epsilon_bar(eps: float, m: int) -> float:
    """Per-swap improvement threshold (1 + eps)^(1/m) - 1, computed stably, and the one check
    of eps: finite, positive and large enough that eps_bar > 0 and swap_bound(m, eps_bar) is finite.

    >>> epsilon_bar(0.1, 1)
    0.1
    >>> epsilon_bar(3.0, 2)
    1.0
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    eps_bar = math.expm1(math.log1p(eps) / m) if 0.0 < eps < math.inf else 0.0
    if not (eps_bar > 0.0 and math.isfinite(swap_bound(m, eps_bar))):
        raise ValueError(f"eps must be finite, positive and large enough for {m} items, got {eps!r}")
    return eps_bar


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
    universe: Tuple[str, ...]
    bundles: Dict[str, FrozenSet[str]]
    abar: Tuple[str, ...]
    favorites: Dict[str, str]
    swaps: int
    trace: Tuple[SwapRecord, ...]
    certificate: LocalOptCertificate


class _Gains:
    """Swap gains over live bundles of a universe J, each memoised until a bundle it reads changes.

    ``abar``: the agents with a positive singleton value in J, in index order; ``favorite`` and
    ``offset`` map each to its first item of J of largest singleton value and that value (the
    shift of vbar), all read from :attr:`Instance.singletons`. vbar(R), each vbar(R - j) and
    each taker's term are memoised; memo misses are answered by one bundle state per agent,
    made by ``state`` from the agent's valuation and bundle on first use: each family's own by
    default, or the ``value()``-backed :class:`BundleState` of :func:`certificate_table`.
    Change ``bundles`` only through :meth:`move`, which keeps the states and the memo in step.
    """

    def __init__(
        self,
        inst: Instance,
        universe: Iterable[str],
        bundles: Dict[str, set],
        state: Callable[[Valuation, Iterable[str]], BundleState] = (
            lambda v, bundle: v.bundle_state(bundle)
        ),
    ):
        self.inst = inst
        self.universe = inst.sort_items(universe)
        self.bundles = bundles
        self.favorite: Dict[str, str] = {}
        self.offset: Dict[str, float] = {}
        for agent, row in zip(inst.agents, inst.singletons):
            singles = [row[inst.item_index[j]] for j in self.universe]
            best = max(singles, default=0.0)
            if best > 0.0:
                self.favorite[agent] = self.universe[singles.index(best)]
                self.offset[agent] = best
        self.abar: List[str] = list(self.offset)
        self.weight = {a: inst.weight_floats[inst.agent_index[a]] for a in self.abar}
        self.others = {a: [t for t in self.abar if t != a] for a in self.abar}
        self._new_state = state
        self._states: Dict[str, BundleState] = {}
        self._rows: Dict[str, List[str]] = {}
        self._cur: Dict[str, Tuple[float, float]] = {}
        self._removed: Dict[str, Dict[str, Tuple[float, float]]] = {a: {} for a in self.abar}
        self._take: Dict[str, Dict[str, float]] = {a: {} for a in self.abar}

    def _state(self, agent: str) -> BundleState:
        state = self._states.get(agent)
        if state is None:
            state = self._states[agent] = self._new_state(self.inst.valuation_of(agent), self.bundles[agent])
        return state

    def _vbar(self, agent: str, value: float) -> Tuple[float, float]:
        """vbar_agent of a bundle worth ``value``, and its log."""
        vbar = self.offset[agent] + value
        return vbar, math.log(vbar)

    def row(self, agent: str) -> List[str]:
        """R_agent in index order."""
        row = self._rows.get(agent)
        if row is None:
            row = self._rows[agent] = self.inst.sort_items(self.bundles[agent])
        return row

    def current(self, agent: str) -> Tuple[float, float]:
        """vbar(R_agent) and its log."""
        hit = self._cur.get(agent)
        if hit is None:
            hit = self._cur[agent] = self._vbar(agent, self._state(agent).value())
        return hit

    def removed(self, agent: str, item: str) -> Tuple[float, float]:
        """vbar(R_agent - item) and its log."""
        row = self._removed[agent]
        hit = row.get(item)
        if hit is None:
            hit = row[item] = self._vbar(agent, self._state(agent).minus(item))
        return hit

    def give(self, giver: str, item: str) -> float:
        """The giver's term of a swap: w_g * (log vbar_g(R_g - j) - log vbar_g(R_g))."""
        return self.weight[giver] * (self.removed(giver, item)[1] - self.current(giver)[1])

    def take(self, taker: str, item: str) -> float:
        """The taker's term of a swap: w_t * (log vbar_t(R_t + j) - log vbar_t(R_t))."""
        row = self._take[taker]
        hit = row.get(item)
        if hit is None:
            log_with = self._vbar(taker, self._state(taker).plus(item))[1]
            hit = row[item] = self.weight[taker] * (log_with - self.current(taker)[1])
        return hit

    def scan(self) -> Iterator[_Swap]:
        """(giver, item, taker, log-gain) of every swap, in scan order."""
        for giver in self.abar:
            for item in self.row(giver):
                give = self.give(giver, item)
                for taker in self.others[giver]:
                    yield giver, item, taker, give + self.take(taker, item)

    def move(self, giver: str, item: str, taker: str) -> None:
        self._state(giver).remove(item)
        self._state(taker).add(item)
        self.bundles[giver].discard(item)
        self.bundles[taker].add(item)
        for agent in (giver, taker):
            self._rows.pop(agent, None)
            self._cur.pop(agent, None)
            self._removed[agent].clear()
            self._take[agent].clear()


def _first_improving(
    table: _Gains, threshold: float, changed: Dict[str, int], verified: Dict[str, int], now: int
) -> Optional[_Swap]:
    """The first swap in scan order whose gain beats ``threshold``, found by scoring only the
    triples that can have changed since their position was last verified.

    ``changed[a]`` is the swap count at which agent a's bundle last changed and ``verified[j]``
    the swap count at which item j's position, under its current holder, last passed with no
    improving triple. A position whose giver is unchanged since then scores only the takers
    changed since then; every other triple there has the same two bundles, so the same gain, as
    when it was found non-improving. Each position that passes is verified at ``now``.
    """
    recent = sorted(table.abar, key=changed.__getitem__, reverse=True)
    rank = {a: k for k, a in enumerate(table.abar)}
    since: Dict[int, List[str]] = {}  # verified count -> takers changed after it, in index order
    takes = table._take
    for giver in table.abar:
        giver_changed, others = changed[giver], table.others[giver]
        for item in table.row(giver):
            seen = verified[item]
            takers = others if giver_changed > seen else since.get(seen)
            if takers is None:
                fresh = itertools.takewhile(lambda a: changed[a] > seen, recent)
                takers = since[seen] = sorted(fresh, key=rank.__getitem__)
            if takers:
                give = table.give(giver, item)
                for taker in takers:
                    take = takes[taker].get(item)  # table.take with its memo hit inlined: the hottest line
                    gain = give + (table.take(taker, item) if take is None else take)
                    if gain > threshold:
                        return giver, item, taker, gain
            verified[item] = now
    return None


def _threshold(eps_bar: float) -> float:
    """log(1 + eps_bar), the log-gain an improving swap must strictly beat."""
    if not eps_bar >= 0:
        raise ValueError(f"eps_bar must be a nonnegative number, got {eps_bar!r}")
    return math.log1p(eps_bar)


def local_search(inst: Instance, universe: Iterable[str], eps_bar: float) -> LocalSearchResult:
    """Redistribute ``universe`` into an eps_bar-local optimum.

    Agents with no positive single item in the universe receive nothing and take no part.
    Initially the smallest-index participating agent holds everything.
    """
    threshold = _threshold(eps_bar)
    table = _Gains(inst, universe, {a: set() for a in inst.agents})
    if table.abar:
        table.bundles[table.abar[0]] = set(table.universe)  # no state exists yet
    max_swaps = swap_bound(len(table.universe) + 1, eps_bar) if eps_bar > 0 else math.inf
    trace: List[SwapRecord] = []
    changed = dict.fromkeys(table.abar, 0)
    verified = dict.fromkeys(table.universe, -1)
    while True:
        hit = _first_improving(table, threshold, changed, verified, len(trace))
        if hit is None:
            break
        giver, item, taker, gain = hit
        table.move(giver, item, taker)
        trace.append(SwapRecord(len(trace) + 1, giver, item, taker, gain))
        changed[giver] = changed[taker] = len(trace)
        if len(trace) > max_swaps:
            raise InvariantViolation(
                f"swap count {len(trace)} exceeded the certified bound {max_swaps:.3f}"
            )
    gains = [gain for *_, gain in table.scan()]
    return LocalSearchResult(
        universe=tuple(table.universe),
        bundles={a: frozenset(b) for a, b in table.bundles.items()},
        abar=tuple(table.abar),
        favorites=table.favorite,
        swaps=len(trace),
        trace=tuple(trace),
        certificate=LocalOptCertificate(
            triples_checked=len(gains), max_log_gain=max(gains, default=NEG_INF), threshold=threshold
        ),
    )


def certificate_table(inst: Instance, bundles: Mapping[str, Iterable[str]]) -> _Gains:
    """The gain table over ``bundles`` that :func:`verify_local_opt` and :func:`prices` read;
    its states, built on first use, call ``value()`` on sets."""
    alloc = Allocation.of(bundles)
    _check_structure(inst, alloc)
    sets = {a: set(alloc.bundle(a)) for a in inst.agents}
    table = _Gains(inst, alloc.allocated(), sets, BundleState)
    outside = {a for a, b in sets.items() if b} - set(table.abar)
    if outside:
        raise AllocationError(
            f"agents {sorted(outside)} hold items but value no single allocated item positively"
        )
    return table


def verify_local_opt(table: _Gains, eps_bar: float) -> List[Tuple[str, str, str]]:
    """Exhaustively re-check local optimality: every (giver, taker, item) triple of ``table``
    whose swap gain strictly beats log(1 + eps_bar); the empty list certifies an eps_bar-local
    optimum. The recheck is exact, not a tolerance game, and independent of the search's memo."""
    threshold = _threshold(eps_bar)
    return [
        (giver, taker, item)
        for giver, item, taker, gain in table.scan()
        if gain > threshold
    ]


@dataclass(frozen=True)
class PriceVector:
    """Per-item prices extracted from a local optimum.

    Asymmetric variant: p_j = w_i * log(vbar_i(R_i) / vbar_i(R_i - j)), caps w_i and in total 1.
    Symmetric variant:  p_j = vbar_i(R_i) / vbar_i(R_i - j) - 1, caps 1 and in total the agent count.
    ``budgets`` maps each participating agent, in index order, to the bundle
    it was priced on and its cap; ``total_cap`` caps their spending together.
    """

    variant: str
    values: Dict[str, float]
    budgets: Dict[str, Tuple[FrozenSet[str], float]]
    total_cap: float

    def total(self, items: Iterable[str]) -> float:
        return float_total(self.values[j] for j in sorted(items))


def prices(table: _Gains) -> Tuple[PriceVector, PriceVector]:
    """Asymmetric and symmetric prices of the items held by participating agents, from the
    vbar(R) and vbar(R - j) ``table`` memoised (all of them, after :func:`verify_local_opt`);
    a symmetric price above 1 is recorded, and as prices are nonnegative it breaks a cap."""
    asymmetric = PriceVector("asymmetric", {}, {}, 1.0)
    symmetric = PriceVector("symmetric", {}, {}, float(len(table.abar)))
    for agent in table.abar:
        with_item, log_with = table.current(agent)
        for item in table.row(agent):
            without, log_without = table.removed(agent, item)
            asymmetric.values[item] = table.weight[agent] * (log_with - log_without)
            symmetric.values[item] = with_item / without - 1.0
        bundle = frozenset(table.bundles[agent])
        asymmetric.budgets[agent] = (bundle, table.weight[agent])
        symmetric.budgets[agent] = (bundle, 1.0)
    return asymmetric, symmetric


@dataclass(frozen=True)
class SpendingReport:
    variant: str
    per_agent: Dict[str, Tuple[float, float]]  # agent -> (spent, cap)
    total_spent: float
    total_cap: float

    def within_caps(self) -> bool:
        """Every agent and the whole universe within its cap, up to :data:`~nswfair.instance.TOLERANCE`."""
        return self.total_spent <= self.total_cap + TOLERANCE and all(
            spent <= cap + TOLERANCE for spent, cap in self.per_agent.values()
        )


def check_spending(price_vector: PriceVector) -> SpendingReport:
    """Spending of each participating agent, and of all together, against the caps
    ``price_vector`` records, those local optimality implies. The sums come from
    ``price_vector`` alone, with no valuation call; the report records the
    figures and :meth:`SpendingReport.within_caps` judges them.
    """
    per_agent = {
        agent: (price_vector.total(bundle), cap) for agent, (bundle, cap) in price_vector.budgets.items()
    }
    return SpendingReport(
        variant=price_vector.variant,
        per_agent=per_agent,
        total_spent=float_total(spent for spent, _ in per_agent.values()),
        total_cap=price_vector.total_cap,
    )
