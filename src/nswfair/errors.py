"""Exception types shared across the solver modules."""


class UnknownItem(ValueError):
    """A bundle referenced an item outside the valuation's domain."""


class AllocationError(ValueError):
    """Structurally invalid allocation: overlapping bundles or foreign ids."""


class SizeGuardExceeded(ValueError):
    """Exhaustive enumeration would exceed the size guard."""


class LemmaViolation(Exception):
    """A certified property failed on concrete data; signals a solver bug."""


class InvariantViolation(RuntimeError):
    """An internal loop or counter left its provable range."""
