"""Exception hierarchy shared across the package."""


class IwalabError(Exception):
    """Base class for every error raised by this package."""


class MixedContextError(IwalabError):
    """Operands live in different p-adic contexts."""


class NotAUnitError(IwalabError):
    """Inversion of an element of positive valuation."""


class NotSquareError(IwalabError):
    """A square matrix was required."""


class ZeroToPrecisionError(IwalabError):
    """Every coefficient vanishes modulo p^N; the value is indistinguishable from 0."""


class PrecisionExhaustedError(IwalabError):
    """The p-adic precision is too small to certify the result."""


class ZeroDeterminantError(IwalabError):
    """Presentation matrix with vanishing determinant (module is not torsion)."""


class ValidationError(IwalabError):
    """A structural invariant of the input data is violated."""

    def __init__(self, invariant: str, message: str):
        super().__init__(f"{invariant}: {message}")
        self.invariant = invariant


class ParseError(IwalabError):
    """Malformed problem file."""


class UsageError(IwalabError):
    """Malformed command line (unknown command, option or option value)."""


class BudgetExhaustedError(IwalabError):
    """No twisting character certified within the candidate budget."""


class SizeCapExceededError(IwalabError):
    """A request exceeds a size cap: the matrix rank or the working precision."""
