"""Euler characteristics and Akashi series over Iwasawa algebras.

Exact p-adic linear algebra at a fixed working precision p^N, polynomials in
Z_p[[X]] with Weierstrass preparation and character twists, finite-level Euler
characteristics of torsion modules over Z_p[[X]] and of crossed-product
modules of false-Tate type, and searches for twisting characters that make
every requested level finite.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExhaustedError,
    IwalabError,
    MixedContextError,
    ParseError,
    PrecisionExhaustedError,
    SizeCapExceededError,
    UsageError,
    ValidationError,
    ZeroDeterminantError,
    ZeroToPrecisionError,
)
from .padic import (
    AT_LEAST_N,
    ElementaryDivisors,
    PadicContext,
    PadicInt,
)
from .series import (
    Character,
    PowerSeries,
    WeierstrassData,
    det_mult_mod_omega,
    lambda_mu,
    twist_series,
    weierstrass_prepare,
)
from .results import EulerResult, EulerStatus, TwistSearchReport
from .gamma import GammaModule, find_twist, series_matrix_det
from .crossed import CrossedModule, Level, find_twist_crossed
from .kernels import KERNEL_IMPL

__all__ = [
    "AT_LEAST_N",
    "BudgetExhaustedError",
    "Character",
    "CrossedModule",
    "ElementaryDivisors",
    "EulerResult",
    "EulerStatus",
    "GammaModule",
    "IwalabError",
    "KERNEL_IMPL",
    "Level",
    "MixedContextError",
    "PadicContext",
    "PadicInt",
    "ParseError",
    "PowerSeries",
    "PrecisionExhaustedError",
    "SizeCapExceededError",
    "TwistSearchReport",
    "UsageError",
    "ValidationError",
    "WeierstrassData",
    "ZeroDeterminantError",
    "ZeroToPrecisionError",
    "det_mult_mod_omega",
    "find_twist",
    "find_twist_crossed",
    "lambda_mu",
    "series_matrix_det",
    "twist_series",
    "weierstrass_prepare",
]
