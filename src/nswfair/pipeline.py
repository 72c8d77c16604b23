"""Three-phase Nash welfare solver: match, redistribute, rematch.

Phase 1 gives every agent one item through a max-weight matching on
single-item scores w_i * log v_i(j); if no agent-covering matching with
positive values exists, no complete allocation has positive welfare and an
arbitrary complete allocation flagged ``log_nsw = -inf`` is returned.
Phase 2 runs the swap local search on the leftover universe J with threshold
eps_bar = (1 + eps)^(1/m) - 1. Phase 3 rematches the phase-1 items on top of
the local-search bundles, maximizing sum_i w_i * log v_i(R_i + sigma(i)),
each v_i(R_i + h) read from one bundle state of R_i per agent.

Phase 1's scores come from the instance's table of singleton values
v_i({j}) (:attr:`Instance.singletons`), read once per instance. The
search, the local-optimality recheck and the prices read from that table
which agents take part and each one's shift, and leftover items go to the
column maximum, so no stage evaluates a singleton again.

The report embeds verification certificates plus the approximation factors
implied by the instance's weight profile. One fresh :func:`certificate_table`,
read through the family states as the search's table is, serves the
local-optimality recheck (the one scan of every swap triple, whose record is
the search's ``certificate``), then both price vectors and spending reports.
The certificates are records, returned whatever they show for the caller to judge.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InvariantViolation
from .instance import LOG2, NEG_INF, Allocation, Instance, complete_with_leftovers, nsw_log, validate, welfare_term
from .search import (
    LocalSearchResult,
    SpendingReport,
    certificate_table,
    check_spending,
    epsilon_bar,
    local_search,
    prices,
    swap_bound,
    verify_local_opt,
)
from .matching import solve_assignment

__all__ = ["phi", "GuaranteeFactors", "guarantee_factor", "SolveCertificates", "SolveReport", "solve_nsw"]


def phi(nu: float) -> float:
    """sup over x in (0, 1] of 2^(1-x) * (1 + nu/x)^x.

    The log objective g(x) = (1 - x) log 2 + x log(1 + nu/x) is concave in x, so a golden-section
    search plus the two boundary candidates (x -> 0 gives 2, x = 1 gives 1 + nu) pins the supremum
    to about 1e-9. phi(0) = 2 and phi(nu) <= nu + 2 always. With y = 1 + nu/x, g'(x) = 0 reads
    log y + 1/y = 1 + log 2, free of nu; its root y* = 4.3110704... gives the interior maximiser
    x* = nu / (y* - 1), so the maximum sits at x = 1 with value nu + 1 exactly when nu >= 3.3110704...

    >>> phi(3.32)
    4.32
    >>> phi(3.3) > 4.3
    True
    """
    if nu < 0:
        raise ValueError("nu must be nonnegative")

    def g(x: float) -> float:
        return (1.0 - x) * LOG2 + x * math.log1p(nu / x)

    lo, hi = 1e-12, 1.0
    inv_gold = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_gold * (hi - lo)
    x2 = lo + inv_gold * (hi - lo)
    g1, g2 = g(x1), g(x2)
    while hi - lo > 1e-12:
        if g1 < g2:
            lo, x1, g1 = x1, x2, g2
            x2 = lo + inv_gold * (hi - lo)
            g2 = g(x2)
        else:
            hi, x2, g2 = x2, x1, g1
            x1 = hi - inv_gold * (hi - lo)
            g1 = g(x1)
    best = max(g((lo + hi) / 2.0), LOG2, math.log1p(nu))
    return math.exp(best)


@dataclass(frozen=True)
class GuaranteeFactors:
    """Approximation factors valid for the instance's weight profile.

    ``symmetric`` is 4 + eps and only applies under equal weights (None
    otherwise); ``asymmetric`` is (n * w_max + 2 + eps) * e; ``strong`` is
    (phi(n * w_max) + eps) * e and, as phi(nu) <= nu + 2, never exceeds it.
    """

    symmetric: Optional[float]
    asymmetric: float
    strong: float

    def best(self) -> float:
        return self.strong if self.symmetric is None else min(self.strong, self.symmetric)


def guarantee_factor(inst: Instance, eps: float) -> GuaranteeFactors:
    nu = float(inst.n * max(inst.weights))
    asymmetric = (nu + 2.0 + eps) * math.e
    if not (eps >= 0.0 and math.isfinite(asymmetric)):
        raise ValueError(f"eps must be a finite nonnegative number small enough for finite factors, got {eps!r}")
    return GuaranteeFactors(
        symmetric=(4.0 + eps) if inst.is_symmetric() else None,
        asymmetric=asymmetric,
        strong=(phi(nu) + eps) * math.e,
    )


@dataclass(frozen=True)
class SolveCertificates:
    local_opt_violations: Tuple[Tuple[str, str, str], ...]
    spending_asymmetric: Optional[SpendingReport]
    spending_symmetric: Optional[SpendingReport]
    swap_limit: float

    def to_json(self) -> dict:
        spending = (("asymmetric", self.spending_asymmetric), ("symmetric", self.spending_symmetric))
        return {
            "local_opt_violations": [list(v) for v in self.local_opt_violations],
            "swap_limit": self.swap_limit,
            "spending": {variant: None if report is None else report.to_json() for variant, report in spending},
        }


@dataclass(frozen=True)
class SolveReport:
    allocation: Allocation
    log_nsw: float
    feasible: bool
    tau: Dict[str, str]
    sigma: Dict[str, str]
    eps: float
    eps_bar: float
    guarantee: GuaranteeFactors
    certificates: SolveCertificates
    search: Optional[LocalSearchResult]

    @property
    def swaps(self) -> int:
        return len(self.search.trace) if self.search is not None else 0

    def nsw(self) -> float:
        return math.exp(self.log_nsw) if self.log_nsw != NEG_INF else 0.0

    def to_json(self) -> dict:
        def num(x: float):
            return "-inf" if x == NEG_INF else x

        search = self.search
        return {
            "log_nsw": num(self.log_nsw),
            "nsw": self.nsw(),
            "feasible": self.feasible,
            "allocation": {a: sorted(b) for a, b in sorted(self.allocation.bundles.items())},
            "tau": dict(sorted(self.tau.items())),
            "matched_items": sorted(self.tau.values()),
            "leftover_universe": sorted(search.universe) if search else [],
            "search_bundles": {
                a: sorted(search.bundles[a]) if search else [] for a in sorted(self.allocation.bundles)
            },
            "sigma": dict(sorted(self.sigma.items())),
            "swaps": self.swaps,
            "eps": self.eps,
            "eps_bar": self.eps_bar,
            "guarantee": asdict(self.guarantee),
            "certificates": self.certificates.to_json(),
        }


def _infeasible_report(inst: Instance, eps: float, eps_bar: float, guarantee: GuaranteeFactors) -> SolveReport:
    bundles = {a: frozenset() for a in inst.agents}
    bundles[inst.agents[0]] = frozenset(inst.items)
    allocation = Allocation(bundles)
    return SolveReport(
        allocation=allocation,
        log_nsw=NEG_INF,
        feasible=False,
        tau={},
        sigma={},
        eps=eps,
        eps_bar=eps_bar,
        guarantee=guarantee,
        certificates=SolveCertificates((), None, None, 0.0),
        search=None,
    )


def _welfare_scores(inst: Instance, values: Iterable[Sequence[float]]) -> List[List[float]]:
    """The matching table of welfare terms w_i * log x, one row of values x per agent in index order."""
    return [[welfare_term(w, x) for x in row] for w, row in zip(inst.weight_floats, values)]


def solve_nsw(inst: Instance, eps: float) -> SolveReport:
    """Approximately maximize weighted Nash welfare over complete allocations.

    ``eps > 0`` trades accuracy for swap count: the factor is 4 + eps under
    equal weights and (phi(n * w_max) + eps) * e in general (``strong`` of
    :func:`guarantee_factor`), while the number of swaps stays within
    swap_bound(m, eps_bar).
    """
    problems = validate(inst)
    if problems:
        raise ValueError("; ".join(problems))
    eps_bar = epsilon_bar(eps, max(inst.m, 1))
    guarantee = guarantee_factor(inst, eps)
    if inst.m < inst.n:
        return _infeasible_report(inst, eps, eps_bar if inst.m else 0.0, guarantee)
    phase1 = solve_assignment(_welfare_scores(inst, inst.singletons))
    if phase1.total == NEG_INF:
        return _infeasible_report(inst, eps, eps_bar, guarantee)
    tau = {inst.agents[i]: inst.items[c] for i, c in enumerate(phase1.assignment)}
    h_items = inst.sort_items(tau.values())

    search = local_search(inst, frozenset(inst.items) - set(h_items), eps_bar)

    states = [v.bundle_state(search.bundles[a]) for v, a in zip(inst.valuations, inst.agents)]
    phase3 = solve_assignment(_welfare_scores(inst, ([state.plus(h) for h in h_items] for state in states)))
    if phase3.total == NEG_INF:
        raise InvariantViolation("rematching lost the finite matching inherited from phase 1")
    sigma = {inst.agents[i]: h_items[c] for i, c in enumerate(phase3.assignment)}

    allocation = Allocation({a: frozenset(search.bundles[a] | {sigma[a]}) for a in inst.agents})
    allocation = complete_with_leftovers(inst, allocation)

    table = certificate_table(inst, search.bundles)
    local_opt = verify_local_opt(table, eps_bar)
    asymmetric, symmetric = map(check_spending, prices(table))
    certificates = SolveCertificates(local_opt.violations, asymmetric, symmetric, swap_bound(inst.m, eps_bar))
    return SolveReport(
        allocation=allocation,
        log_nsw=nsw_log(inst, allocation),
        feasible=True,
        tau=tau,
        sigma=sigma,
        eps=eps,
        eps_bar=eps_bar,
        guarantee=guarantee,
        certificates=certificates,
        search=replace(search, certificate=local_opt),
    )
