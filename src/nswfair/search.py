"""First-improvement swap search over the unmatched items, with certificates.

The search redistributes a universe J among the agents with a positive
singleton value in J (``abar``; for monotone submodular v with v(empty) = 0,
those with v(J) > 0). Each is scored through the shifted valuation
vbar(S) = shift + v(S), shift its largest singleton value in J, so empty
bundles keep positive value and log-gains are defined. A move takes item j
from agent i to agent k; it is accepted when

    w_i * log(vbar_i(R_i - j) / vbar_i(R_i))
  + w_k * log(vbar_k(R_k + j) / vbar_k(R_k))  >  log(1 + eps_bar)

strictly. Scanning order is fixed (agents by index, items by index, takers by
index) and the first improving move is applied, so runs are deterministic.

The search starts from a greedy deal of J (:meth:`_Gains._deal`). The swap
bound rests only on shift <= vbar(S) <= (|S| + 1) * shift, so it and the
certificates hold from any start; the deal saves the swaps that would
otherwise hand items out one by one.

Every swap is scored through one gain table, :class:`_Gains`, from two
memos: vbar_i(R_i - j) and its log per (giver, item), which give the giver's
term w_i * log(vbar_i(R_i - j) / vbar_i(R_i)), and the taker's term
w_k * log(vbar_k(R_k + j) / vbar_k(R_k)) per (taker, item). Each is filled on
first use from the agent's bundle state (:meth:`Valuation.bundle_state`),
which answers v(R), v(R + j) and v(R - j) from running counts instead of
re-evaluating the whole bundle. The table builds one state per participant
from the start allocation it is given, or deals J itself, and the states are
the only record of the live bundles. A taker is saturated when v_k(R_k)
equals v_k(M), M all the instance's items (:attr:`Instance.full_values`):
then v_k(R_k) <= v_k(R_k + j) <= v_k(M) for a monotone valuation makes its
term exactly 0.0. Monotonicity also makes every taker term >= 0.0 and every
giver term <= 0.0, so a saturated taker's swap gains at most 0.0, below any
threshold, and it wins the deal only when every term is 0.0, when the first
participant wins anyway. So no triple of a saturated taker is scored: the
deal, the search's walks and the recheck skip its whole row, and the recheck
counts those triples and takes their gain, the giver's term plus 0.0, into
its largest gain without scoring them. The rule needs monotonicity alone, so
it holds for every valuation and changes no float.

After a swap the search walks again from the top. :meth:`_Gains.move` alone
clears memo entries, only the giver's and the taker's, so every other memoised
term stays exact and a walk finds the triple a fresh evaluation would.
Each state is bit for bit equal to ``value()``, which is correctly rounded and
so independent of summation order, so the gains, the swap trace and the
certificates are the floats a fresh evaluation gives.

The table also screens takers with headroom. For monotone submodular v with
v(empty) = 0, adding j to R gains at most min(v({j}), v(M) - v(R)) (Nemhauser,
Wolsey & Fisher 1978; lazy greedy's stale bound, Minoux 1978), so a taker's
term is at most

    B_t(j) = w_t * log1p(min(v_t({j}), v_t(M) - v_t(R_t)) / vbar_t(R_t)).

:meth:`_Gains.bounds` keeps, per item of J, the largest B_t(j) over the
participants not holding j, from one matrix that a swap updates in the giver's
and the taker's rows only; a table of fewer than
:data:`~nswfair.instance.SCREEN_MIN_CELLS` (participant, item) cells keeps +inf
bounds instead. A walk skips a position when the giver's term plus that bound is
at most the threshold minus the margin :data:`~nswfair.instance.TOLERANCE`: no
triple there can improve. It reads a taker term's state only when the giver's
term plus that taker's own B_t(j) passes the same cutoff, so a triple whose two
bundles are unchanged since a walk passed it costs no read again: its term is
memoised, or its bound rules it out again. The recheck skips a position when the
same sum plus the margin is at most both the threshold and the largest gain so
far, so its record keeps the same violations, count and largest gain. The margin
covers the rounding of a taker term's two logs, each of a finite vbar, so below
710 and off by about 1e-13 at most, against its bound's one ``log1p``, below
log 2. The bound holds for the floats of the four generator families,
:data:`~nswfair.valuations.EXACT_FAMILIES`, and for them the recheck's verdict
rests on their submodularity. Every other valuation, a table (which admits a
slack) or a subclass included, gets a bound of +inf and is never screened.

The deal screens by the same bound with its log taken out: as log1p(x) <= x,

    B_t(j) <= cap_t(j) = w_t * min(v_t({j}), v_t(M) - v_t(R_t)) / vbar_t(R_t),

whose own rounding is below 1e-15, its ratio being at most 1 (vbar_t is at
least the shift). Each item scores the participant of the largest cap first,
then the others in index order, skipping one whose cap is at most the best
term so far less the margin, as it cannot win; so every item goes where an
unscreened deal sends it, and every later swap is the same. An item's caps are
one numpy expression, and the deal refreshes only the taker's vbar(R) and
headroom, from the read it already makes. Tables under the same size deal
unscreened.

One fresh table over the final bundles, :func:`certificate_table`, backs
:func:`verify_local_opt`, the one certificate pass over every triple, and then
:func:`prices`, which reads the recheck's vbar(R) and vbar(R - j) into both
price vectors with provable spending caps. It reads the family states as the
search does, but shares no memo or state with it. The certificates
are records: no certificate function raises on what it finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from . import instance, valuations
from .errors import AllocationError, InvariantViolation, UnknownItem
from .instance import NEG_INF, TOLERANCE, Allocation, Instance, _check_structure, float_total
from .valuations import BundleState

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
    """The recheck's record: the violating triples in scan order, the triples scored and the largest gain."""

    violations: Tuple[Tuple[str, str, str], ...]
    triples_checked: int
    max_log_gain: float
    threshold: float


@dataclass(frozen=True)
class LocalSearchResult:
    universe: Tuple[str, ...]
    bundles: Dict[str, FrozenSet[str]]
    abar: Tuple[str, ...]
    trace: Tuple[SwapRecord, ...]
    certificate: Optional[LocalOptCertificate] = None


class _Gains:
    """Swap gains over live bundles of a universe J, each memoised until a bundle it reads changes.

    ``abar``: the agents with a positive singleton value in J, in index order; ``offset`` maps each
    to its largest singleton value in J (the shift of vbar), both read from
    :attr:`Instance.singleton_array`. ``states`` holds one bundle state per participant, made by its
    valuation's :meth:`~nswfair.valuations.Valuation.bundle_state` from its bundle in ``start``, or,
    with no ``start``, from the search's start, which :meth:`_deal` deals from the states' own taker
    terms. vbar(R), each vbar(R - j) and each taker's term are memoised; memo misses are answered by
    the states. ``full`` maps each participant to v(all items), and :meth:`current` flags R as
    saturated when v(R) equals it, from the read that gives vbar(R) and for as long as that read is
    memoised; :meth:`live` lists the participants not flagged, the only takers the deal, the walks
    and the recheck score. :meth:`bounds` caps each item's taker terms for the walks' and the
    recheck's screen, if ``screened``: the table has :data:`~nswfair.instance.SCREEN_MIN_CELLS`
    (participant, item) cells or more. Change a bundle only through :meth:`move`, which keeps the
    memo in step.
    """

    def __init__(self, inst: Instance, universe: Iterable[str], start: Optional[Mapping[str, Iterable[str]]] = None):
        self.inst = inst
        universe = set(universe)
        if not universe <= inst.item_index.keys():
            raise UnknownItem(f"universe items {sorted(universe - inst.item_index.keys())} are not instance items")
        self.universe = inst.sort_items(universe)
        single = inst.singleton_array.take([inst.item_index[j] for j in self.universe], axis=1)
        best = single.max(axis=1).tolist() if self.universe else ()
        self.offset: Dict[str, float] = {a: x for a, x in zip(inst.agents, best) if x > 0.0}
        self.abar: List[str] = list(self.offset)
        # A screened table's bound matrix: each participant's row and each item's position in it,
        # the participants' singleton block and which of their valuations the bounds hold for.
        self.screened = bool(self.abar) and len(self.abar) * len(self.universe) >= instance.SCREEN_MIN_CELLS
        if self.screened:
            self._row_of = {a: r for r, a in enumerate(self.abar)}
            self._position = {j: k for k, j in enumerate(self.universe)}
            self._single = single.take([inst.agent_index[a] for a in self.abar], axis=0)
            self._capped = np.array([type(inst.valuation_of(a)) in valuations.EXACT_FAMILIES for a in self.abar])
        held = start or {}
        self.states: Dict[str, BundleState] = {a: inst.valuation_of(a).bundle_state(held.get(a, ())) for a in self.abar}
        self.weight = {a: inst.weight_floats[inst.agent_index[a]] for a in self.abar}
        self.full = {a: inst.full_values[inst.agent_index[a]] for a in self.abar}
        self._rows: Dict[str, List[str]] = {}
        self._cur: Dict[str, Tuple[float, float, bool, float]] = {}
        self._removed: Dict[str, Dict[str, Tuple[float, float]]] = {a: {} for a in self.abar}
        self._take: Dict[str, Dict[str, float]] = {a: {} for a in self.abar}
        self._bound: Optional[np.ndarray] = None
        self._stale: List[str] = []
        self._colmax: Optional[Dict[str, float]] = None if self.screened else dict.fromkeys(self.universe, math.inf)
        if start is None:
            self._deal()

    def _deal(self) -> None:
        """The search's start: each item of J, in index order, goes to the participant whose taker
        term on the bundles dealt so far is largest, ties to the smallest index (none: no deal).
        Only unsaturated participants are scored, each against the first participant's 0.0: a
        saturated one's term is 0.0 and no term is below it. A screened table deals by
        :meth:`_screened_deal`."""
        if self.screened:
            return self._screened_deal()
        live = self.live()
        for item in self.universe if self.abar else ():
            best, taker = 0.0, self.abar[0]
            for agent in live:
                term = self.take(agent, item)
                if term > best:
                    best, taker = term, agent
            self.states[taker].add(item)
            self._cur.pop(taker, None)
            self._take[taker].clear()
            if taker in live and self.current(taker)[2]:
                live.remove(taker)

    def _screened_deal(self) -> None:
        """:meth:`_deal` with each item's terms screened by their caps (see the module docstring):
        the participant of the largest cap is scored first, and one whose cap is at most the best
        term so far less the margin is not scored, as it cannot win."""
        abar, capped = self.abar, self._capped.tolist()
        # Item-major singletons, +inf for a valuation the caps do not hold for, and per
        # participant vbar(R) and its headroom: -inf once saturated, +inf if not capped.
        single = self._single.T.copy()
        single[:, ~self._capped] = math.inf
        weight, vbar, room = np.array([self.weight[a] for a in abar]), np.empty(len(abar)), np.empty(len(abar))

        def refresh(k: int) -> bool:
            vbar[k], _, saturated, headroom = self.current(abar[k])
            room[k] = -math.inf if saturated else headroom if capped[k] else math.inf
            return not saturated

        live = sum(map(refresh, range(len(abar))))
        for k, item in enumerate(self.universe):
            best, taker = 0.0, 0
            if live:
                caps = np.minimum(single[k], room)
                caps /= vbar
                caps *= weight
                bar = self.take(abar[int(caps.argmax())], item) - TOLERANCE
                for t in (caps > bar).nonzero()[0].tolist():
                    if caps.item(t) > bar:
                        term = self.take(abar[t], item)
                        if term > best:
                            best, taker = term, t
                            bar = max(bar, term - TOLERANCE)
            agent = abar[taker]
            self.states[agent].add(item)
            self._cur.pop(agent, None)
            self._take[agent].clear()
            if room[taker] > -math.inf and not refresh(taker):
                live -= 1

    def _vbar(self, agent: str, value: float) -> Tuple[float, float]:
        """vbar_agent of a bundle worth ``value``, and its log."""
        vbar = self.offset[agent] + value
        return vbar, math.log(vbar)

    def row(self, agent: str) -> List[str]:
        """R_agent in index order."""
        row = self._rows.get(agent)
        if row is None:
            row = self._rows[agent] = self.inst.sort_items(self.states[agent].bundle)
        return row

    def current(self, agent: str) -> Tuple[float, float, bool, float]:
        """vbar(R_agent), its log, whether R_agent is saturated (worth v(all items)) and its
        headroom v(all items) - v(R_agent)."""
        hit = self._cur.get(agent)
        if hit is None:
            value, full = self.states[agent].value(), self.full[agent]
            hit = self._cur[agent] = (*self._vbar(agent, value), value == full, full - value)
        return hit

    def removed(self, agent: str, item: str) -> Tuple[float, float]:
        """vbar(R_agent - item) and its log."""
        row = self._removed[agent]
        hit = row.get(item)
        if hit is None:
            hit = row[item] = self._vbar(agent, self.states[agent].minus(item))
        return hit

    def give(self, giver: str, item: str) -> float:
        """The giver's term of a swap: w_g * (log vbar_g(R_g - j) - log vbar_g(R_g))."""
        return self.weight[giver] * (self.removed(giver, item)[1] - self.current(giver)[1])

    def take(self, taker: str, item: str) -> float:
        """The taker's term of a swap: w_t * (log vbar_t(R_t + j) - log vbar_t(R_t)), >= 0.0 by
        monotonicity, and exactly 0.0 for a saturated taker, as v(R_t) <= v(R_t + j) <= v(all
        items) = v(R_t), which is why the table scores only the takers of :meth:`live`."""
        row = self._take[taker]
        hit = row.get(item)
        if hit is None:
            log_now = self.current(taker)[1]
            hit = row[item] = self.weight[taker] * (self._vbar(taker, self.states[taker].plus(item))[1] - log_now)
        return hit

    def live(self) -> List[str]:
        """The participants whose R is not saturated, in index order."""
        return [a for a in self.abar if not self.current(a)[2]]

    def _bound_rows(self, agents: List[str]) -> np.ndarray:
        """B_t(j) for each agent t of ``agents`` (rows) and item j of J (columns): 0.0 where t
        holds j, which it cannot take, and +inf for a valuation outside
        :data:`~nswfair.valuations.EXACT_FAMILIES`."""
        at, position = [self._row_of[a] for a in agents], self._position
        cur = [self.current(a) for a in agents]
        vbar = np.array([c[0] for c in cur])[:, None]
        headroom = np.array([c[3] for c in cur])[:, None]
        weight = np.array([self.weight[a] for a in agents])[:, None]
        rows = weight * np.log1p(np.minimum(self._single[at], headroom) / vbar)
        rows[~self._capped[at]] = math.inf
        held = [(r, position[j]) for r, a in enumerate(agents) for j in self.states[a].bundle]
        if held:
            rows[tuple(zip(*held))] = 0.0
        return rows

    def bounds(self) -> Dict[str, float]:
        """Per item j of J, the largest B_t(j) over the participants t not holding j: every taker
        term of j is at most it, up to rounding (see the module docstring). The matrix of B is
        built on first use; after that only the rows of the agents :meth:`move` changed are
        rebuilt. A table that is not screened builds none, and every bound is +inf."""
        if self._colmax is None:
            if self._bound is None:
                self._bound = self._bound_rows(self.abar)
            else:
                self._bound[[self._row_of[a] for a in self._stale]] = self._bound_rows(self._stale)
            self._stale = []
            self._colmax = dict(zip(self.universe, self._bound.max(axis=0).tolist()))
        return self._colmax

    def move(self, giver: str, item: str, taker: str) -> None:
        self.states[giver].remove(item)
        self.states[taker].add(item)
        if self._bound is not None:
            self._stale += (giver, taker)
            self._colmax = None
        for agent in (giver, taker):
            self._rows.pop(agent, None)
            self._cur.pop(agent, None)
            self._removed[agent].clear()
            self._take[agent].clear()

    def first_improving(self, threshold: float) -> Optional[_Swap]:
        """The first swap in scan order whose gain beats ``threshold``, scoring only the takers of
        :meth:`live` other than the giver: a saturated taker's gain is the giver's term, <= 0.0. A
        position whose giver's term plus its item's :meth:`bounds` is at most ``threshold`` less
        the margin scores none, and a taker term not memoised is read only when its own bound
        passes the same test."""
        takes, live = self._take, self.live()
        bounds = self.bounds() if live else {}  # also refreshes the bound matrix's stale rows
        bound, cutoff = self._bound, threshold - TOLERANCE
        if bound is not None:
            row_of, col = self._row_of, self._position
        for giver in self.abar:
            takers = [t for t in live if t != giver]
            for item in self.row(giver) if takers else ():
                give = self.give(giver, item)
                if give + bounds[item] > cutoff:
                    for taker in takers:
                        take = takes[taker].get(item)  # self.take with its memo hit inlined: the hottest line
                        if take is None:
                            if bound is not None and give + bound.item(row_of[taker], col[item]) <= cutoff:
                                continue  # the taker's own bound rules it out, with no state read
                            take = self.take(taker, item)
                        if give + take > threshold:
                            return giver, item, taker, give + take
        return None


def _threshold(eps_bar: float) -> float:
    """log(1 + eps_bar), the log-gain an improving swap must strictly beat, and the one check
    of eps_bar: a positive number (a nan threshold would certify anything)."""
    if not eps_bar > 0:
        raise ValueError(f"eps_bar must be a positive number, got {eps_bar!r}")
    return math.log1p(eps_bar)


def local_search(inst: Instance, universe: Iterable[str], eps_bar: float) -> LocalSearchResult:
    """Redistribute ``universe`` into an eps_bar-local optimum.

    Agents with no positive single item in the universe receive nothing and take no part.
    The search starts from the greedy deal of :meth:`_Gains._deal` and makes at most
    swap_bound(|J| + 1, eps_bar) swaps on its universe J; an eps_bar so small that this bound
    is not finite is refused with :class:`ValueError`, so no search runs without its budget.
    Its ``certificate`` is None: a walk keeps no record of what it scores, so the one
    certificate is :func:`verify_local_opt`'s full scan, which ``solve_nsw`` attaches.
    """
    threshold = _threshold(eps_bar)
    table = _Gains(inst, universe)
    max_swaps = swap_bound(len(table.universe) + 1, eps_bar)
    if not math.isfinite(max_swaps):
        raise ValueError(f"eps_bar {eps_bar!r} is too small for a finite swap bound on {len(table.universe)} items")
    trace: List[SwapRecord] = []
    while (hit := table.first_improving(threshold)) is not None:
        table.move(*hit[:3])
        trace.append(SwapRecord(len(trace) + 1, *hit))
        if len(trace) > max_swaps:
            raise InvariantViolation(f"swap count {len(trace)} exceeded the certified bound {max_swaps:.3f}")
    return LocalSearchResult(
        universe=tuple(table.universe),
        bundles={a: frozenset(table.states[a].bundle if a in table.states else ()) for a in inst.agents},
        abar=tuple(table.abar),
        trace=tuple(trace),
    )


def certificate_table(inst: Instance, bundles: Mapping[str, Iterable[str]]) -> _Gains:
    """A fresh gain table over ``bundles``, which :func:`verify_local_opt` and :func:`prices`
    read; its states are the valuations' own, built from ``bundles`` with the table."""
    alloc = Allocation.of(bundles)
    _check_structure(inst, alloc)
    table = _Gains(inst, alloc.allocated(), alloc.bundles)
    outside = {a for a, b in alloc.bundles.items() if b} - set(table.abar)
    if outside:
        raise AllocationError(
            f"agents {sorted(outside)} hold items but value no single allocated item positively"
        )
    return table


def verify_local_opt(table: _Gains, eps_bar: float) -> LocalOptCertificate:
    """Exhaustively re-check local optimality in one scan of ``table``, a fresh table free of the
    search's memo: the record of every triple against log(1 + eps_bar). A saturated
    taker's triples are counted, not scored: their gain is the giver's term plus 0.0, so the
    giver's term itself, <= 0.0, which enters the largest gain as such and never violates. A
    position whose giver's term plus its item's :meth:`_Gains.bounds`, plus the margin, is at
    most both the threshold and the largest gain so far is counted, not scored, as is a taker whose
    own bound passes that test, with no state read: none can violate or raise the largest gain."""
    threshold, checked, best = _threshold(eps_bar), 0, NEG_INF
    violations: List[Tuple[str, str, str]] = []
    live, per_item = table.live(), len(table.abar) - 1
    bounds = table.bounds() if live else {}
    bound = table._bound
    if bound is not None:
        at, col = table._row_of, table._position
    for giver in table.abar:
        takers = [t for t in live if t != giver]
        for item in table.row(giver):
            give = table.give(giver, item)
            checked += per_item
            if len(takers) < per_item:
                best = max(best, give)
            if not takers or give + bounds[item] + TOLERANCE <= min(best, threshold):
                continue
            for taker in takers:
                if bound is not None and give + bound.item(at[taker], col[item]) + TOLERANCE <= min(best, threshold):
                    continue
                gain = give + table.take(taker, item)
                best = max(best, gain)
                if gain > threshold:
                    violations.append((giver, taker, item))
    return LocalOptCertificate(tuple(violations), checked, best, threshold)


@dataclass(frozen=True)
class PriceVector:
    """Per-item prices extracted from a local optimum.

    Asymmetric variant: p_j = w_i * log(vbar_i(R_i) / vbar_i(R_i - j)), caps w_i and in total 1.
    Symmetric variant:  p_j = vbar_i(R_i) / vbar_i(R_i - j) - 1, caps 1 and in total the agent count.
    ``budgets`` maps each participating agent, in index order, to its row (the items it
    was priced on, in index order) and its cap; ``total_cap`` caps their spending together.
    """

    variant: str
    values: Dict[str, float]
    budgets: Dict[str, Tuple[Tuple[str, ...], float]]
    total_cap: float


def prices(table: _Gains) -> Tuple[PriceVector, PriceVector]:
    """Asymmetric and symmetric prices of the items held by participating agents, from the
    vbar(R) and vbar(R - j) ``table`` memoised (all of them, after :func:`verify_local_opt`);
    a symmetric price above 1 is recorded, and as prices are nonnegative it breaks a cap."""
    asymmetric = PriceVector("asymmetric", {}, {}, 1.0)
    symmetric = PriceVector("symmetric", {}, {}, float(len(table.abar)))
    for agent in table.abar:
        with_item, log_with = table.current(agent)[:2]
        row = tuple(table.row(agent))
        for item in row:
            without, log_without = table.removed(agent, item)
            asymmetric.values[item] = table.weight[agent] * (log_with - log_without)
            symmetric.values[item] = with_item / without - 1.0
        asymmetric.budgets[agent] = (row, table.weight[agent])
        symmetric.budgets[agent] = (row, 1.0)
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

    def to_json(self) -> dict:
        per_agent = {a: {"spent": s, "cap": c} for a, (s, c) in sorted(self.per_agent.items())}
        return {"per_agent": per_agent, "total_spent": self.total_spent, "total_cap": self.total_cap}


def check_spending(price_vector: PriceVector) -> SpendingReport:
    """Spending of each participating agent, and of all together, against the caps
    ``price_vector`` records, those local optimality implies. The sums come from
    ``price_vector`` alone, with no valuation call, each a :func:`~nswfair.instance.float_total`
    in index order: an agent's over its row, the whole over the agents. The report records
    the figures and :meth:`SpendingReport.within_caps` judges them.
    """
    values = price_vector.values
    per_agent = {a: (float_total(values[j] for j in row), cap) for a, (row, cap) in price_vector.budgets.items()}
    return SpendingReport(
        variant=price_vector.variant,
        per_agent=per_agent,
        total_spent=float_total(spent for spent, _ in per_agent.values()),
        total_cap=price_vector.total_cap,
    )
