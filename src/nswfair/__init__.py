"""Approximate Nash social welfare maximization for indivisible items.

A deterministic matching + swap-search + rematching solver for weighted Nash
welfare under monotone submodular valuations, with certified diagnostics, an
exhaustive exact oracle, and a 1/2-EFX fairness post-processing stage.
"""

from .efx import (
    FairnessOutcome,
    build_feasibility_graph,
    envy_cycle_complete,
    guarantee_half_efx,
    half_efx_check,
    make_fair_or_efficient,
)
from .errors import (
    AllocationError,
    InvariantViolation,
    LemmaViolation,
    SizeGuardExceeded,
    UnknownItem,
)
from .generate import FAMILIES, WEIGHT_MODES, random_instance
from .instance import (
    Allocation,
    Instance,
    complete_with_leftovers,
    load_allocation,
    load_instance,
    nsw_log,
    save_instance,
    validate,
)
from .search import (
    certificate_table,
    check_spending,
    epsilon_bar,
    local_search,
    prices,
    verify_local_opt,
)
from .matching import solve_assignment, solve_lex_assignment
from .oracle import brute_force_opt, ratio_of_logs
from .pipeline import GuaranteeFactors, SolveReport, guarantee_factor, phi, solve_nsw
from .valuations import (
    Additive,
    BudgetAdditive,
    Coverage,
    ExplicitTable,
    PartitionMatroidRank,
    check_submodular,
)

__version__ = "0.1.0"

__all__ = [
    "Additive",
    "Allocation",
    "AllocationError",
    "BudgetAdditive",
    "Coverage",
    "ExplicitTable",
    "FAMILIES",
    "FairnessOutcome",
    "GuaranteeFactors",
    "Instance",
    "InvariantViolation",
    "LemmaViolation",
    "PartitionMatroidRank",
    "SizeGuardExceeded",
    "SolveReport",
    "UnknownItem",
    "WEIGHT_MODES",
    "brute_force_opt",
    "build_feasibility_graph",
    "certificate_table",
    "check_spending",
    "check_submodular",
    "complete_with_leftovers",
    "envy_cycle_complete",
    "epsilon_bar",
    "guarantee_factor",
    "guarantee_half_efx",
    "half_efx_check",
    "load_allocation",
    "load_instance",
    "local_search",
    "make_fair_or_efficient",
    "nsw_log",
    "phi",
    "prices",
    "random_instance",
    "ratio_of_logs",
    "save_instance",
    "solve_assignment",
    "solve_lex_assignment",
    "solve_nsw",
    "validate",
    "verify_local_opt",
]
