"""Truncated power series over Z_p: the algebra Z_p[[X]] and its Y-twin.

The ambient identification is gamma <-> 1+X, fixed globally.  A series is
either a genuine polynomial (`exact_degree` set: the coefficients beyond that
index are true zeros in Z_p, so X-adic tail bounds are vacuous) or a window of
`truncation` known coefficients.  p-adic knowledge is always modulo the
context's p^N; the two notions of precision are tracked independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _polyops as po
from .errors import (
    DivisorDivisibleByPError,
    MixedContextError,
    PrecisionExhaustedError,
    TailUncertifiedError,
    ValidationError,
    ZeroToPrecisionError,
)
from .padic import AT_LEAST_N, PadicContext, PadicInt
from . import kernels

DEFAULT_TRUNCATION = 128


@dataclass(frozen=True)
class PowerSeries:
    context: PadicContext
    variable: str
    coeffs: tuple
    exact_degree: int | None = None

    def __post_init__(self):
        if self.variable not in ("X", "Y"):
            raise ValidationError("variable", f"unknown variable {self.variable!r}")
        q = self.context.modulus
        cs = [c % q for c in self.coeffs]
        if not cs:
            raise ValidationError("nonempty", "a series needs at least one coefficient")
        if self.exact_degree is not None:
            want = self.exact_degree + 1
            if len(cs) < want:
                cs += [0] * (want - len(cs))
            elif len(cs) > want:
                if any(cs[want:]):
                    raise ValidationError(
                        "exact-degree", "nonzero residue beyond the declared degree"
                    )
                cs = cs[:want]
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ints(cls, ctx: PadicContext, variable: str, ints) -> "PowerSeries":
        """Exact polynomial from integer coefficients (ascending)."""
        c = po.trim_int(list(ints))
        return cls(ctx, variable, tuple(c), exact_degree=len(c) - 1)

    @classmethod
    def truncated(cls, ctx: PadicContext, variable: str, coeffs, trunc=None) -> "PowerSeries":
        """Series known only through its first `trunc` coefficients."""
        c = list(coeffs)
        if trunc is not None:
            if trunc < 1:
                raise ValidationError("truncation", "truncation order must be >= 1")
            c = (c + [0] * (trunc - len(c)))[:trunc]
        return cls(ctx, variable, tuple(c), exact_degree=None)

    @classmethod
    def zero(cls, ctx: PadicContext, variable: str) -> "PowerSeries":
        return cls.from_ints(ctx, variable, [0])

    # -- structure ---------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.exact_degree is not None

    @property
    def truncation(self):
        """Number of known coefficients, or None for an exact polynomial."""
        return None if self.is_exact else len(self.coeffs)

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
        tail = f" deg={self.exact_degree}" if self.is_exact else f" trunc={len(self.coeffs)}"
        return f"PowerSeries({self.variable},{tail}, {list(self.coeffs)})"

    # -- arithmetic --------------------------------------------------------

    def _window(self, other: "PowerSeries"):
        ws = [s for s in (self.truncation, other.truncation) if s is not None]
        return min(ws) if ws else None

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check(other)
        q = self.context.modulus
        w = self._window(other)
        if w is None:
            out = po.padd(list(self.coeffs), list(other.coeffs), q)
            deg = max(self.exact_degree, other.exact_degree)
            return PowerSeries(self.context, self.variable, tuple(out), exact_degree=deg)
        a = (list(self.coeffs) + [0] * w)[:w]
        b = (list(other.coeffs) + [0] * w)[:w]
        return PowerSeries(self.context, self.variable, tuple(po.padd(a, b, q)))

    def __sub__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        q = self.context.modulus
        return PowerSeries(
            self.context,
            self.variable,
            tuple((-c) % q for c in self.coeffs),
            exact_degree=self.exact_degree,
        )

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check(other)
        q = self.context.modulus
        w = self._window(other)
        out = po.pmul(list(self.coeffs), list(other.coeffs), q, trunc=w)
        if w is None:
            deg = self.exact_degree + other.exact_degree
            out = (out + [0] * (deg + 1 - len(out)))[:deg + 1]
            return PowerSeries(self.context, self.variable, tuple(out), exact_degree=deg)
        out = (out + [0] * (w - len(out)))[:w]
        return PowerSeries(self.context, self.variable, tuple(out))

    def scale(self, c) -> "PowerSeries":
        """Multiply by a scalar (int or PadicInt)."""
        r = c.residue if isinstance(c, PadicInt) else c
        q = self.context.modulus
        return PowerSeries(
            self.context,
            self.variable,
            tuple((x * r) % q for x in self.coeffs),
            exact_degree=self.exact_degree,
        )


@dataclass(frozen=True)
class Character:
    """A continuous character of Gamma, pinned down by u = rho(gamma) in 1+pZ_p."""

    u: PadicInt
    u_exact: int

    def __post_init__(self):
        p = self.u.context.p
        if (self.u.residue - 1) % p != 0:
            raise ValidationError("character-image", "rho(gamma) must lie in 1 + pZ_p")
        if self.u_exact % self.u.context.modulus != self.u.residue:
            raise ValidationError("character-exact", "exact value disagrees with residue")

    @classmethod
    def from_int(cls, ctx: PadicContext, value: int) -> "Character":
        return cls(ctx.make(value), u_exact=value)

    @classmethod
    def trivial(cls, ctx: PadicContext) -> "Character":
        return cls.from_int(ctx, 1)

    def value_residue(self, inverse: bool = False) -> int:
        if inverse:
            return pow(self.u.residue, -1, self.u.context.modulus)
        return self.u.residue


@dataclass(frozen=True)
class WeierstrassData:
    """f = p^mu * distinguished * unit; the classical lambda/mu normal form."""

    mu: int
    distinguished: PowerSeries
    unit: PowerSeries

    @property
    def lam(self) -> int:
        return self.distinguished.exact_degree


def _first_unit_index(coeffs, p):
    for i, c in enumerate(coeffs):
        if c % p:
            return i
    return None


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


def weierstrass_divide(f: PowerSeries, g: PowerSeries):
    """Weierstrass division f = q*g + r with deg r < lambda_g.

    lambda_g is the index of g's first unit coefficient.  g's window is
    factored g = P*U by the Newton lift of `weierstrass_prepare`, f's window
    is divided by the monic P, and q = quo * U^-1.  The identity holds on the
    common coefficient window, and r is exactly f mod P whenever both inputs
    are exact polynomials.  When g is exact and its unit coefficient is its
    leading one, U is that constant and the division is one long division
    by g, with q exact; otherwise q is a window of window - lambda_g
    coefficients.
    """
    f._check(g)
    ctx = f.context
    p, N, q = ctx.p, ctx.N, ctx.modulus
    lam = _first_unit_index(g.coeffs, p)
    if lam is None:
        raise DivisorDivisibleByPError("every coefficient of the divisor is divisible by p")
    windows = [w for w in (f.truncation, g.truncation) if w is not None]
    if windows:
        window = min(windows)
    elif lam == g.exact_degree:
        window = None
    else:
        window = max(len(f.coeffs), len(g.coeffs), lam + 2)
    fw, gw = list(f.coeffs), list(g.coeffs)
    if window is None:
        quo, rem = po.poly_divmod_unit_lead(fw, gw, q)
        rs = PowerSeries(ctx, f.variable, tuple(rem), exact_degree=max(lam - 1, 0))
        return PowerSeries(ctx, f.variable, tuple(quo), exact_degree=len(quo) - 1), rs
    if window <= lam:
        raise PrecisionExhaustedError(f"truncation {window} cannot see past lambda_g = {lam}")
    fw = (fw + [0] * window)[:window]
    gw = (gw + [0] * window)[:window]
    P, U = _hensel_prepare_poly(gw, lam, p, N, q)
    quo, rem = po.poly_divmod_unit_lead(fw, P, q)
    rs = PowerSeries(ctx, f.variable, tuple(rem), exact_degree=max(lam - 1, 0))
    qlen = window - lam
    quo = po.pmul(quo, po.series_inverse(U, q, qlen), q, trunc=qlen)
    return PowerSeries.truncated(ctx, f.variable, quo, trunc=qlen), rs


def weierstrass_prepare(f: PowerSeries) -> WeierstrassData:
    """Factor f = p^mu * P * u with P distinguished monic of degree lambda.

    f / p^mu is factored by Newton iteration mod P (`_hensel_prepare_poly`),
    at the size of lambda; a truncated series is prepared as the polynomial
    of its window, so P * u equals that polynomial and u is a window of
    len - lambda coefficients.  The distinguished part and unit live in a
    context of precision N - mu (dividing by p^mu costs mu certified digits).
    """
    lam, mu = lambda_mu(f)
    ctx = f.context
    ctx1 = ctx.with_precision(ctx.N - mu) if mu else ctx
    pm = ctx.p ** mu
    P, U = _hensel_prepare_poly([c // pm for c in f.coeffs], lam, ctx.p, ctx1.N, ctx1.modulus)
    dist = PowerSeries(ctx1, f.variable, tuple(P), exact_degree=lam)
    if f.is_exact:
        unit = PowerSeries(ctx1, f.variable, tuple(U), exact_degree=len(U) - 1)
    else:
        unit = PowerSeries.truncated(ctx1, f.variable, U, trunc=len(f.coeffs) - lam)
    return WeierstrassData(mu=mu, distinguished=dist, unit=unit)


def lambda_mu(f: PowerSeries):
    """(lambda, mu) without running the full preparation."""
    ctx = f.context
    if f.is_zero_to_precision():
        raise ZeroToPrecisionError("every coefficient is 0 mod p^N")
    vals = [ctx.int_valuation(c) for c in f.coeffs]
    mu = min(v for v in vals if v is not AT_LEAST_N)
    lam = next(i for i, v in enumerate(vals) if v == mu)
    return lam, mu


def twist_series(f: PowerSeries, rho: Character, direction: str) -> PowerSeries:
    """Apply the twist substitution X -> c(1+X) - 1, c = rho(gamma)^(+-1).

    Ring homomorphism; exact on exact polynomials.  On truncated series the
    window is preserved and coefficient j keeps certified precision
    min(N, window - j) (the dropped tail sits in (p, X)^window).
    """
    if f.variable != "X":
        raise ValidationError("twist-variable", "twists act on the Gamma variable X")
    if direction not in ("forward", "inverse"):
        raise ValidationError("twist-direction", f"unknown direction {direction!r}")
    q = f.context.modulus
    c = rho.value_residue(inverse=(direction == "inverse"))
    w = len(f.coeffs)
    out = po.substitute_linear(list(f.coeffs), (c - 1) % q, c, q, w)
    out += [0] * (w - len(out))
    return PowerSeries(f.context, "X", tuple(out), exact_degree=f.exact_degree)


def evaluate_character(f: PowerSeries, rho: Character, direction: str) -> PadicInt:
    """rho~ evaluation: f at u-1 (forward) or at u^-1 - 1 (inverse)."""
    if f.variable != "X":
        raise ValidationError("eval-variable", "character evaluation acts on the variable X")
    if direction not in ("forward", "inverse"):
        raise ValidationError("eval-direction", f"unknown direction {direction!r}")
    ctx = f.context
    q = ctx.modulus
    x0 = (rho.value_residue(inverse=(direction == "inverse")) - 1) % q
    if not f.is_exact:
        v0 = ctx.int_valuation(x0)
        if v0 is not AT_LEAST_N and len(f.coeffs) * v0 < ctx.N:
            raise TailUncertifiedError(
                f"tail valuation bound {len(f.coeffs)} * {v0} < N = {ctx.N}"
            )
    return PadicInt(ctx, po.poly_eval(list(f.coeffs), x0, q))


def omega(n: int, ctx: PadicContext, variable: str = "X") -> PowerSeries:
    """The level-n augmentation generator (1+X)^(p^n) - 1, as an exact polynomial."""
    if n < 0:
        raise ValidationError("level", "level must be >= 0")
    return PowerSeries.from_ints(ctx, variable, po.omega_coeffs(ctx.p, n))


def det_mult_mod_omega(f: PowerSeries, n: int) -> PadicInt:
    """Determinant of multiplication by f on the rank-p^n quotient by omega_n.

    Equals the resultant Res(omega_n, f) up to sign.  The quotient is the
    group ring Z_p[h]/(h^(p^n) - 1), h = 1 + X, where multiplication by f is
    a circulant; the change of basis from X is unitriangular, so the
    determinant is the X-basis one.  A truncated dividend's unknown tail
    folds down with valuation >= floor(window / p^n), so the result is
    returned in a context of that certified precision.
    """
    ctx = f.context
    p, N = ctx.p, ctx.N
    pn = p ** n
    if f.is_exact:
        neff = N
    else:
        window = len(f.coeffs)
        neff = min(N, window // pn)
        if neff < 1:
            raise PrecisionExhaustedError(
                f"truncation {window} certifies no digits modulo omega_{n}"
            )
    q = p ** neff
    det = kernels.det_mod(po.circulant(po.to_group_ring(f.coeffs, pn, q)), p, neff)
    out_ctx = ctx if neff == N else ctx.with_precision(neff)
    return PadicInt(out_ctx, det)
