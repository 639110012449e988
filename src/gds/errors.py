"""Exception hierarchy shared across the package.

Every error that a solver or constructor raises deliberately derives from
GdsError, so callers (and the CLI) can distinguish usage problems from bugs.
"""


class GdsError(Exception):
    """Base class for all deliberate errors raised by this package."""


class ModeMismatch(GdsError):
    """Exact-mode and float-mode objects were mixed in one computation."""


class SeparationFailure(GdsError):
    """A feature family fails to separate two distinct points."""


class SupportError(GdsError):
    """A measure has a zero or negative weight where full support is required."""


class MetricViolation(GdsError):
    """A matrix handed in as a metric is not one (symmetry/triangle/diagonal)."""


class MarginalMismatch(GdsError):
    """A coupling's row or column sums disagree with the stated marginals."""


class InfeasibleMarginals(GdsError):
    """The two marginals of a transport program carry different total mass."""


class BudgetExceeded(GdsError):
    """An exact enumeration would exceed the configured search budget."""


class SizeLimit(BudgetExceeded):
    """An input is larger than the hard cap of an exact algorithm.

    Like any declined budget, it is a BudgetExceeded, so one except clause
    (and the CLI's exit 3) covers both.
    """


class WitnessNotLipschitz(GdsError):
    """A lower-bound witness function violates the 1-Lipschitz condition."""


class EmptyCellSet(GdsError):
    """An operation that needs at least one cell received an empty set."""


class NotLipschitzFamily(GdsError):
    """A quotient family contains a row that is not 1-Lipschitz for d_X."""


class SchemaError(GdsError):
    """A dataset file does not follow the documented JSON schema."""
