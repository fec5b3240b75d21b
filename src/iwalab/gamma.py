"""Finitely generated torsion modules over Z_p[[X]] via square presentations.

A module is the cokernel of right multiplication by a d x d matrix F of integer
polynomials on the series ring (row-vector convention).  Finite-level Euler
characteristics come by two independent routes: Smith elimination of the
twisted unit-free core of F (its units split off once, at construction)
modulo the level polynomial over Z/p^N (direct), and
the exact sum over k <= n of v_p of the norms of the twisted characteristic
polynomial at the p^k-th roots of unity (analytic), most of them in closed
form from lambda and mu (`exactint.twisted_chi`).  Exactness of NotFinite verdicts is guaranteed by
exact cyclotomic remainders over Z, never by residue vanishing mod p^N.
"""

from __future__ import annotations

from functools import cached_property

from . import _polyops as po
from . import exactint, kernels
from .errors import (
    MixedContextError,
    PrecisionExhaustedError,
    ValidationError,
    ZeroDeterminantError,
)
from .padic import PadicContext
from .results import DEFAULT_BUDGET, EulerResult, search_twists
from .series import Character, PowerSeries, weierstrass_prepare


def series_matrix_det(entries) -> PowerSeries:
    """Determinant of a square matrix of PowerSeries, as a reduction mod p^N.

    The entries' residues are lifted to integer polynomials, their
    determinant is taken over Z[X] by `exactint.poly_mat_det`, and the result
    is reduced mod p^N.
    """
    ctx = entries[0][0].context
    var = entries[0][0].variable
    for row in entries:
        for e in row:
            if e.context != ctx or e.variable != var:
                raise MixedContextError("determinant entries in different contexts or variables")
    det = exactint.poly_mat_det([[e.coeffs for e in row] for row in entries])
    return PowerSeries.from_ints(ctx, var, det)


class GammaModule:
    """Cokernel of x -> x*F on Z_p[[X]]^d; must be torsion (det F != 0).

    The module holds F's exact integer polynomial entries (ascending in X),
    the unit-free core of F in the basis of h = 1 + X (`unit_free_core`),
    det F over Z[X] with its (lambda, mu), and det F(h - 1); the direct route
    and the preparation work mod p^N, the analytic route and the
    certificates over Z.  det F is prepared on first use.
    """

    def __init__(self, ctx: PadicContext, entries, _det_int=None, _core=None, _det_h=None):
        entries = tuple(tuple(tuple(int(c) for c in e) for e in row) for row in entries)
        d = len(entries)
        if d == 0 or any(len(row) != d for row in entries):
            raise ValidationError("square-presentation", "F must be a nonempty square matrix")
        if any(not e for row in entries for e in row):
            raise ValidationError("nonempty", "a series needs at least one coefficient")
        self.context = ctx
        self.d = d
        self.exact_entries = entries
        # det F, det F(h - 1) and the core over Z do not depend on N: a re-embedding passes them on
        if _det_int is None:
            _det_int = exactint.poly_mat_det(entries)
        self.det_int = _det_int
        self.det = PowerSeries.from_ints(ctx, "X", _det_int)
        if self.det.is_zero_to_precision():
            if _det_int != [0]:
                raise PrecisionExhaustedError(
                    "det F is nonzero but vanishes mod p^N; raise the precision"
                )
            raise ZeroDeterminantError("det F = 0 to working precision; module is not torsion")
        self._lam_mu = exactint.lambda_mu(_det_int, ctx.p)
        self._det_h = po.h_shift(_det_int) if _det_h is None else _det_h
        self._core = unit_free_core(entries, ctx.p) if _core is None else _core

    @classmethod
    def from_int_matrix(cls, ctx: PadicContext, entries) -> "GammaModule":
        """Presentation with exact integer polynomial entries (ascending lists)."""
        return cls(ctx, entries)

    def with_precision(self, N: int) -> "GammaModule":
        """Re-embed the exact integer data at a different precision."""
        ctx = self.context.with_precision(N)
        return GammaModule(ctx, self.exact_entries, self.det_int, self._core, self._det_h)

    @cached_property
    def weierstrass(self):
        """det F as p^mu * distinguished * unit (`series.weierstrass_prepare`)."""
        return weierstrass_prepare(self.det)

    # -- characteristic element ---------------------------------------------

    def characteristic_element(self) -> PowerSeries:
        """det F in Weierstrass normal form p^mu * P, the unit part dropped."""
        w = self.weierstrass
        pm = self.context.p ** w.mu
        q = self.context.modulus
        coeffs = [(c * pm) % q for c in w.distinguished.coeffs]
        return PowerSeries(self.context, "X", tuple(coeffs), exact_degree=w.lam)

    def char_invariants(self):
        """(lambda, mu) of the characteristic element, read off the exact det F, not prepared."""
        return self._lam_mu

    # -- Euler characteristics ------------------------------------------------

    def _exact_chi(self, rho: Character, n: int):
        """`exactint.twisted_chi` of the held det F(h - 1): chi, or None when not finite."""
        return exactint.twisted_chi(self._det_h, rho.u_exact, self.context.p, n, *self._lam_mu)

    def euler_direct(self, rho: Character, n: int) -> EulerResult:
        """chi at level n from the twisted core over Z_p[h]/(h^(p^n) - 1).

        The twist by rho^-1 sends h to c*h, c = u^-1, so coefficient b of a
        core entry (in the h-basis) is scaled by c^b and the indices then
        fold mod p^n.  The core has the cokernel of F at every level and
        twist, and no entry of it is a unit there, so nothing splits per
        level, and an empty core (det F(0) a unit mod p) is answered here:
        h0 = 0, with no elimination.  Any other goes to `kernels.smith_ladder`
        as the block circulant of its twisted level matrix (at n = 0 the
        scalar matrix): at the word precision first, and again at p^N only
        when some divisor reaches it.
        """
        rho.check_prime(self.context.p)
        if not self._core:
            return EulerResult.from_h0(0)
        pn = self.context.p ** n

        def build(q):
            c = pow(rho.u_exact, -1, q)
            cb = [1]
            M = []
            for row in self._core:
                Mi = []
                for e in row:
                    while len(cb) < len(e):
                        cb.append(cb[-1] * c % q)
                    out = [0] * pn
                    for b, a in enumerate(e):
                        out[b % pn] += a * cb[b]
                    Mi.append([v % q for v in out])
                M.append(Mi)
            return po.block_circulant(M)

        exps = kernels.smith_ladder(build, self.context.p, self.context.N)
        if -1 in exps:
            return EulerResult.from_exact(self._exact_chi(rho, n), below=0)
        return EulerResult.from_h0(sum(exps))

    def euler_analytic(self, rho: Character, n: int) -> EulerResult:
        """chi at level n as the exact sum over k <= n of v_p N(P_u(zeta_(p^k))).

        chi = v_p Res(h^(p^n) - 1, P_u) is `exactint.twisted_chi`, which states
        the closed form, of the held det F(h - 1).  Never indeterminate.
        """
        rho.check_prime(self.context.p)
        return EulerResult.from_exact(self._exact_chi(rho, n))


def unit_free_core(entries, p: int):
    """F with every unit split off over Z_p[[X]], in the h-basis: a tuple of rows, maybe empty.

    F must have det F != 0, as a module's has.  Fraction-free (Bareiss) elimination over Z[X] on the entries packed at
    X = 2^b (`_polyops.kronecker_bits`).  The pivot is the row-major first
    entry a whose constant term, the signed low slot, is prime to p; every
    other row r, c its column-j entry, becomes (a*row_r - c*row_i) / prev,
    prev the previous pivot (1 at first), and row i and column j go.  Each
    entry left is then a minor of F (Sylvester's identity), so the division
    is exact and the coefficients fit the slots.  The elimination stops when
    no constant term is prime to p, after r = rank F(0) mod p pivots, and the
    (d - r) x (d - r) rest is unpacked and shifted to h = 1 + X.

    Every pivot is a unit of Z_p[[X]]: twisting by u sends its constant term
    a(0) to a(u^-1 - 1) = a(0) mod p, so it stays a unit in every level ring
    Z/p^N[h]/(h^(p^n) - 1) under every character.  Each step there
    multiplies rows by units, adds multiples of a row and splits off the
    summand R/(a) = 0, so the cokernel of F and of the core agree at every
    (rho, n, N), and no entry of the core is a unit at any of them.  Empty
    exactly when det F(0) is a unit mod p.
    """
    b = po.kronecker_bits(entries)
    x = 1 << b
    half = x >> 1
    M = [[po.poly_eval(e, x, None) for e in row] for row in entries]
    prev = 1
    while True:
        # ((v + half) mod x) - half is v's signed low slot
        pivot = next(((i, j) for i, row in enumerate(M) for j, v in enumerate(row)
                      if (((v + half) & (x - 1)) - half) % p), None)
        if pivot is None:
            break
        i, j = pivot
        prow = M.pop(i)
        a = prow.pop(j)
        for row in M:
            c = row.pop(j)
            if c or a != prev:
                for k, f in enumerate(prow):
                    row[k] = (a * row[k] - c * f) // prev
        prev = a
    return tuple(
        tuple(tuple(po.h_shift(po.kronecker_unpack(v, b))) for v in row)
        for row in M
    )


def find_twist(module: GammaModule, n_max: int, budget: int = DEFAULT_BUDGET):
    """First u = 1+kp, k = 1, ..., budget, certifying existence at every level n <= n_max.

    The candidate loop is `results.search_twists` on the direct route;
    candidates are tried in ascending order, so acceptance is deterministic.
    The certificate covers the requested levels only.  Every level at once
    is in reach with integers alone: `exactint.twisted_chi` reads finitely
    many exact norms, and past them chi grows as mu*p^n + lambda*n + nu;
    the search does not report that yet.
    """
    return search_twists(
        module.context,
        range(1, budget + 1),
        range(n_max + 1),
        module.euler_direct,
        f"no candidate among 1+kp, k <= {budget}, certified every level <= {n_max}",
    )
