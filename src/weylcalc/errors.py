"""Exception hierarchy for weylcalc.

Every error raised by the library derives from :class:`WeylcalcError` so
callers (in particular the CLI) can distinguish validated scientific
failures from bad input.
"""


class WeylcalcError(Exception):
    """Base class for all weylcalc errors.

    Keyword ``fields`` are diagnostics of the failure: each is kept as an
    attribute and in the ``fields`` mapping, which the CLI writes into the
    error artifact next to the type and message.
    """

    def __init__(self, message, **fields):
        super().__init__(message)
        self.fields = fields
        for name, value in fields.items():
            setattr(self, name, value)


# ---------------------------------------------------------------------------
# series construction / arithmetic


class EmptyCoefficients(WeylcalcError):
    """A coefficient list was empty where at least one entry is required."""


class NonFiniteCoefficient(WeylcalcError):
    """A coefficient was NaN or infinite."""


class OrderExhausted(WeylcalcError):
    """An operation needs more coefficients than the series has."""


class EmptyCombination(WeylcalcError):
    """linear_combine was called with no terms."""


class InvalidDisk(WeylcalcError):
    """DiskSpec parameters out of range."""


# ---------------------------------------------------------------------------
# operator algebra


class ZeroOperator(WeylcalcError):
    """All convolution coefficients are zero (multiplication by zero)."""


class NotWeyl(WeylcalcError):
    """A monomial matrix does not commute with D to a scalar multiple of I.

    Fields: ``offdiag_max``, ``diag_spread``.
    """


class InconsistentConvolution(WeylcalcError):
    """Extracted convolution coefficients disagree across monomial columns."""


class KernelResidualTooLarge(WeylcalcError):
    """A series claimed to lie in ker T fails the membership threshold."""


# ---------------------------------------------------------------------------
# kernel solver


class ZeroOrderOperator(WeylcalcError):
    """kernel_basis needs a differential part of order >= 1."""


class ConvolutionCase(WeylcalcError):
    """a = 0: the kernel is spanned by exponential monomials, not handled
    by the power-series recurrence."""


# ---------------------------------------------------------------------------
# fitting / orbit construction


class SingularSystem(WeylcalcError):
    """The regularized collocation system stayed singular through ridge
    escalation."""


class SearchExhausted(WeylcalcError):
    """No expanding eigenvalue points found within the search radius cap."""


class BudgetExceeded(WeylcalcError):
    """A per-target fit could not meet its error budget.

    Fields: ``target_index``, ``residual``, ``budget``.
    """


class ScheduleOverflow(WeylcalcError):
    """The iterate schedule exceeded its cap.

    Fields: ``target_index``, ``attempted``, ``cap``.
    """


# ---------------------------------------------------------------------------
# CLI / I/O


class MalformedSpec(WeylcalcError):
    """An operator or problem JSON document failed validation."""


class IoFailure(WeylcalcError):
    """Writing an artifact failed."""
