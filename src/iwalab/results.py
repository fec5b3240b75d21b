"""Result types shared by the commutative and crossed layers, and their twist-search loop."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache

from .errors import BudgetExhaustedError
from .series import Character


class EulerStatus(enum.Enum):
    EXISTS = "exists"
    NOT_FINITE = "not-finite-detected"
    INDETERMINATE = "indeterminate-at-precision"


@dataclass(frozen=True)
class EulerResult:
    """Outcome of one finite-level Euler characteristic computation.

    When status is EXISTS: chi = p^chi_exponent, the homology orders are
    p^h0_exponent and p^h1_exponent, and chi_exponent = h0 - h1 with h1 = 0
    for every square presentation.  `from_h0` and `from_exact` hand out one
    shared instance per status and exponent; no other code constructs one.
    """

    status: EulerStatus
    chi_exponent: int | None = None
    h0_exponent: int | None = None
    h1_exponent: int | None = None

    @property
    def exists(self) -> bool:
        return self.status is EulerStatus.EXISTS

    @staticmethod
    @cache
    def from_h0(h0: int) -> "EulerResult":
        return EulerResult(EulerStatus.EXISTS, chi_exponent=h0, h0_exponent=h0, h1_exponent=0)

    @classmethod
    def from_exact(cls, chi: int | None, below: int | None = None) -> "EulerResult":
        """Verdict of an exact value given by its v_p `chi`, or None when it is 0 (NotFinite).

        chi exists when below `below` (always when None), else is indeterminate;
        a route that met p^N passes below=0 and reads the value as its certificate.
        """
        if chi is None:
            return NOT_FINITE
        if below is None or chi < below:
            return cls.from_h0(chi)
        return INDETERMINATE


NOT_FINITE = EulerResult(EulerStatus.NOT_FINITE)
INDETERMINATE = EulerResult(EulerStatus.INDETERMINATE)


@dataclass(frozen=True)
class LevelOutcome:
    """Per-level line of a twist-search certificate."""

    level: object
    status: EulerStatus
    chi_exponent: int | None = None
    cross_exponent: int | None = None


@dataclass(frozen=True)
class CandidateRecord:
    u: int
    outcomes: tuple
    accepted: bool


@dataclass(frozen=True)
class TwistSearchReport:
    """Enumeration trace: rejected candidates witness the bad set at these levels."""

    accepted_u: int | None
    candidates: tuple


# Twist candidates a search tries when neither the caller nor the problem file sets a budget.
DEFAULT_BUDGET = 25


def search_twists(ctx, ks, levels, route, message):
    """First u = 1 + kp, k in `ks` ascending, with route(rho, level) finite at every level.

    Each candidate's record stops at its first level that is not `exists`.
    Returns (rho, report).  When no candidate is accepted, raises
    BudgetExhaustedError(message) carrying the report.
    """
    records = []
    for k in ks:
        u = 1 + k * ctx.p
        rho = Character.from_int(ctx, u)
        outcomes = []
        ok = True
        for lv in levels:
            res = route(rho, lv)
            outcomes.append(LevelOutcome(lv, res.status, res.chi_exponent))
            if not res.exists:
                ok = False
                break
        records.append(CandidateRecord(u, tuple(outcomes), ok))
        if ok:
            return rho, TwistSearchReport(u, tuple(records))
    err = BudgetExhaustedError(message)
    err.report = TwistSearchReport(None, tuple(records))
    raise err
