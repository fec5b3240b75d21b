"""Exception hierarchy shared across the package."""


class IwalabError(Exception):
    """Base class for every error raised by this package."""


class MixedContextError(IwalabError):
    """Operands live in different p-adic contexts."""


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
    """A request exceeds a size cap of `iwalab.crossed`: the dense matrix rank (RANK_CAP),
    the working precision (PRECISION_CAP, which also bounds the CLI's `--max-precision`),
    the coefficients of one entry (LENGTH_CAP) or a twist search's budget (BUDGET_CAP).
    """
