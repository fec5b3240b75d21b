"""Polynomials in Z_p[[X]] and its Y-twin, known modulo p^N.

The ambient identification is gamma <-> 1+X, fixed globally.  A series is a
genuine polynomial of `exact_degree`: the coefficients beyond that index are
true zeros in Z_p, so the only precision is the context's p^N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import _polyops as po
from . import exactint, kernels
from .errors import MixedContextError, ValidationError, ZeroToPrecisionError
from .padic import PadicContext, PadicInt


@dataclass(frozen=True)
class PowerSeries:
    context: PadicContext
    variable: str
    coeffs: tuple
    exact_degree: int

    def __post_init__(self):
        if self.variable not in ("X", "Y"):
            raise ValidationError("variable", f"unknown variable {self.variable!r}")
        q = self.context.modulus
        cs = [c % q for c in self.coeffs]
        if not cs:
            raise ValidationError("nonempty", "a series needs at least one coefficient")
        if self.exact_degree < 0:
            raise ValidationError("exact-degree", f"degree must be >= 0, got {self.exact_degree}")
        want = self.exact_degree + 1
        if len(cs) < want:
            cs += [0] * (want - len(cs))
        elif len(cs) > want:
            if any(cs[want:]):
                raise ValidationError("exact-degree", "nonzero residue beyond the declared degree")
            cs = cs[:want]
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ints(cls, ctx: PadicContext, variable: str, ints) -> "PowerSeries":
        """Exact polynomial from integer coefficients (ascending)."""
        c = po.trim_int(list(ints))
        return cls(ctx, variable, tuple(c), exact_degree=len(c) - 1)

    # -- structure ---------------------------------------------------------

    def is_zero_to_precision(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other: "PowerSeries"):
        if self.context != other.context:
            raise MixedContextError("series live in different contexts")
        if self.variable != other.variable:
            raise MixedContextError(
                f"series variables differ: {self.variable} vs {other.variable}"
            )

    def __repr__(self):
        return f"PowerSeries({self.variable}, deg={self.exact_degree}, {list(self.coeffs)})"

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check(other)
        out = po.pmul(list(self.coeffs), list(other.coeffs), self.context.modulus)
        deg = self.exact_degree + other.exact_degree
        return PowerSeries(self.context, self.variable, tuple(out), exact_degree=deg)


@dataclass(frozen=True)
class Character:
    """A continuous character of Gamma, pinned down by u = rho(gamma) in 1+pZ_p.

    It holds the exact integer u and the prime p it was checked against, and
    no residue: each route reduces u modulo its own p^N.
    """

    u_exact: int
    p: int

    def __post_init__(self):
        if (self.u_exact - 1) % self.p != 0:
            raise ValidationError("character-image", "rho(gamma) must lie in 1 + pZ_p")

    def check_prime(self, p: int) -> None:
        """Refuse a route at a prime other than the one u was checked against."""
        if p != self.p:
            raise MixedContextError(
                f"a character checked at p = {self.p} cannot twist a module at p = {p}"
            )

    @classmethod
    def from_int(cls, ctx: PadicContext, value: int) -> "Character":
        """The character u = value at ctx's prime: one shared instance per (u, p)."""
        return _shared_character(value, ctx.p)

    @classmethod
    def trivial(cls, ctx: PadicContext) -> "Character":
        return cls.from_int(ctx, 1)


@lru_cache(maxsize=1024)
def _shared_character(u: int, p: int) -> Character:
    """Character(u, p), built once per (u, p) among the last 1024; a bad u is not cached."""
    return Character(u, p)


@dataclass(frozen=True)
class WeierstrassData:
    """f = p^mu * distinguished * unit; the classical lambda/mu normal form."""

    mu: int
    distinguished: PowerSeries
    unit: PowerSeries

    @property
    def lam(self) -> int:
        return self.distinguished.exact_degree


def _mul_mod(a, b, P, m):
    """a * b mod the monic P over Z/m."""
    return po.poly_divmod_unit_lead(po.pmul(a, b, None), P, m)[1]


def _hensel_prepare_poly(f1, lam, p, N, q):
    """Weierstrass preparation of a polynomial by Newton iteration mod P.

    f1 has its first unit coefficient at index lam; lifts the mod-p splitting
    f1 = X^lam * (unit cofactor) to f1 = P * U mod p^N with P monic of degree
    lam congruent to X^lam mod p.  Only P and t = U^-1 mod P are lifted, both
    in Z/p^k[X]/(P), from X^lam and the inverse of the cofactor mod
    (p, X^lam).  Each pass doubles k, capped at N: P += r * t with
    r = f1 mod P, then t += t * (1 - U * t) with U = f1 div P, every product
    reduced mod the monic P (von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 9 and 15.4).  One division of f1 by P, taken at the next
    pass's modulus, gives a pass's U and the next pass's r; the last gives
    the returned U.  A pass costs O(deg f1 * lam + lam^2), and the lift takes
    about log2 N passes; at lam = 1 it is Newton's method on the root of f1
    in pZ_p.  Only the monic P is divided by, so f1's leading coefficient may
    be divisible by p.  Returns (P, U) as residue lists.
    """
    if lam == 0:
        return [1], [c % q for c in f1]
    P = [0] * lam + [1]
    t = po.series_inverse([c % p for c in f1[lam:]], p, lam)
    k = 1
    U, r = po.poly_divmod_unit_lead(f1, P, p ** min(2, N))
    while k < N:
        k = min(2 * k, N)
        m = p ** k
        P = po.padd(P, _mul_mod(r, t, P, m), m)
        U, r = po.poly_divmod_unit_lead(f1, P, p ** min(2 * k, N))
        if k < N:
            e = po.psub([1], _mul_mod(U, t, P, m), m)
            t = po.padd(t, _mul_mod(t, e, P, m), m)
    return P, po.trim_int(U)


def weierstrass_prepare(f: PowerSeries) -> WeierstrassData:
    """Factor f = p^mu * P * u with P distinguished monic of degree lambda.

    f / p^mu is factored by Newton iteration mod P (`_hensel_prepare_poly`),
    at the size of lambda.  The distinguished part and unit live in a context
    of precision N - mu (dividing by p^mu costs mu certified digits).
    """
    lam, mu = lambda_mu(f)
    ctx = f.context
    ctx1 = ctx.with_precision(ctx.N - mu) if mu else ctx
    pm = ctx.p ** mu
    P, U = _hensel_prepare_poly([c // pm for c in f.coeffs], lam, ctx.p, ctx1.N, ctx1.modulus)
    dist = PowerSeries(ctx1, f.variable, tuple(P), exact_degree=lam)
    unit = PowerSeries(ctx1, f.variable, tuple(U), exact_degree=len(U) - 1)
    return WeierstrassData(mu=mu, distinguished=dist, unit=unit)


def lambda_mu(f: PowerSeries):
    """(lambda, mu) of the residues (`exactint.lambda_mu`), without the full preparation."""
    if f.is_zero_to_precision():
        raise ZeroToPrecisionError("every coefficient is 0 mod p^N")
    return exactint.lambda_mu(f.coeffs, f.context.p)


def twist_series(f: PowerSeries, rho: Character, direction: str) -> PowerSeries:
    """Apply the twist substitution X -> c(1+X) - 1, c = rho(gamma)^(+-1).

    A ring homomorphism that keeps the degree.
    """
    if f.variable != "X":
        raise ValidationError("twist-variable", "twists act on the Gamma variable X")
    if direction not in ("forward", "inverse"):
        raise ValidationError("twist-direction", f"unknown direction {direction!r}")
    q = f.context.modulus
    c = pow(rho.u_exact, -1 if direction == "inverse" else 1, q)
    out = po.substitute_linear(list(f.coeffs), (c - 1) % q, c, q)
    return PowerSeries(f.context, "X", tuple(out), exact_degree=f.exact_degree)


def det_mult_mod_omega(f: PowerSeries, n: int) -> PadicInt:
    """Determinant of multiplication by f on the rank-p^n quotient by omega_n.

    Equals the resultant Res(omega_n, f) up to sign.  The quotient is the
    group ring Z_p[h]/(h^(p^n) - 1), h = 1 + X, where multiplication by f is
    a circulant; the change of basis from X is unitriangular, so the
    determinant is the X-basis one.
    """
    ctx = f.context
    q = ctx.modulus
    det = kernels.det_mod(po.circulant(po.to_group_ring(f.coeffs, ctx.p ** n, q)), ctx.p, ctx.N)
    return PadicInt(ctx, det)
