"""Exception hierarchy for weylcalc.

Every error raised by the library derives from :class:`WeylcalcError`,
and its class says whose fault it is.  An :class:`InputError` means the
input is malformed or out of range: the CLI exits 2 and writes nothing.
Any other :class:`WeylcalcError` is a validated outcome of valid input,
a result that leaves the double range included: the CLI exits 1 and
writes ``<command>_error.json``.
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


class InputError(WeylcalcError, ValueError):
    """The input is malformed or out of range; the CLI exits 2."""


# ---------------------------------------------------------------------------
# series construction / arithmetic


class EmptyCoefficients(InputError):
    """A coefficient list was empty where at least one entry is required."""


class NonFiniteCoefficient(WeylcalcError, ValueError):
    """A coefficient or a computed value to be serialized was NaN or
    infinite: a result outside the double range, not bad input."""


class OrderExhausted(WeylcalcError):
    """An operation needs more coefficients than the series has."""


class EmptyCombination(WeylcalcError):
    """linear_combine was called with no terms."""


class InvalidDisk(InputError):
    """DiskSpec parameters out of range."""


# ---------------------------------------------------------------------------
# operator algebra


class ZeroOperator(InputError):
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


class MalformedSpec(InputError):
    """An input document, flag or library parameter failed validation."""


class IoFailure(InputError):
    """Writing an artifact failed."""
