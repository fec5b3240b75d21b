"""Modules over the crossed product of H = Z_p by Gamma = Z_p (false-Tate type).

The datum is a free rank-d module over Z_p[[Y]] with a semilinear action of
the Gamma-lift: coefficients move by sigma (Y -> (1+Y)^kappa - 1) and the
basis moves by a matrix A with unit determinant.  Finite-level Euler
characteristics of twists come by three independent routes:

  * euler_reduced      - coinvariants staged through H first (small matrix);
  * euler_akashi       - evaluation of the level's Akashi polynomial;
  * group_ring_oracle  - one cokernel over the full finite group ring.

All three must agree; their agreement is this package's central test surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import _polyops as po
from . import kernels
from .errors import (
    BudgetExhaustedError,
    MixedContextError,
    SizeCapExceededError,
    ValidationError,
)
from .exactint import int_valuation
from .padic import AT_LEAST_N, PadicContext, PadicInt, cokernel_kernel_orders, smith_form_raw
from .results import (
    CandidateRecord,
    EulerResult,
    EulerStatus,
    LevelOutcome,
    TwistSearchReport,
)
from .series import Character, PowerSeries


@dataclass(frozen=True)
class Level:
    """Open normal subgroup generated by the p^n-th Gamma power and H^(p^m)."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValidationError("level", "levels need n >= 0 and m >= 0")

    @property
    def index_exponent(self) -> int:
        return self.n + self.m


class CrossedModule:
    """Free Z_p[[Y]]-module of rank d with gamma-action x -> sigma(x) * A."""

    def __init__(self, kappa: PadicInt, A, kappa_exact=None, exact_entries=None):
        ctx = kappa.context
        p = ctx.p
        if (kappa.residue - 1) % p != 0:
            raise ValidationError("kappa-pro-p", "kappa must lie in 1 + pZ_p")
        d = len(A)
        if d == 0 or any(len(row) != d for row in A):
            raise ValidationError("square-action", "A must be a nonempty square matrix")
        for row in A:
            for e in row:
                if e.context != ctx:
                    raise MixedContextError("action entries in different contexts")
                if e.variable != "Y":
                    raise ValidationError("variable", "the action matrix lives in the variable Y")
                if not e.is_exact:
                    raise ValidationError(
                        "exact-action", "action entries must be exact polynomials in Y"
                    )
        # det(A)(0) = det(A(0)), so the unit check needs only the constant terms mod p
        if kernels.det_mod([[e.coeffs[0] % p for e in row] for row in A], p, 1) == 0:
            raise ValidationError(
                "unit-determinant", "det(A) must be a unit in Z_p[[Y]] (unit constant term)"
            )
        if kappa_exact is not None and kappa_exact % ctx.modulus != kappa.residue:
            raise ValidationError("kappa-exact", "exact kappa disagrees with its residue")
        self.context = ctx
        self.d = d
        self.kappa = kappa
        self.kappa_exact = kappa_exact
        self.A = tuple(tuple(row) for row in A)
        self.exact_entries = exact_entries
        self._rows_cache = {}
        self._akashi_cache = {}
        self._exact_rows_cache = {}

    @classmethod
    def from_int_data(cls, ctx: PadicContext, kappa: int, entries) -> "CrossedModule":
        A = [[PowerSeries.from_ints(ctx, "Y", e) for e in row] for row in entries]
        raw = tuple(tuple(tuple(int(c) for c in e) for e in row) for row in entries)
        return cls(ctx.make(kappa), A, kappa_exact=kappa, exact_entries=raw)

    def with_precision(self, N: int) -> "CrossedModule":
        if self.exact_entries is None or self.kappa_exact is None:
            raise ValidationError("exactness", "cannot re-embed a non-exact module")
        return CrossedModule.from_int_data(
            self.context.with_precision(N), self.kappa_exact, self.exact_entries
        )

    # -- levels ---------------------------------------------------------------

    def kappa_minus_one_valuation(self):
        """v_p(kappa - 1); None means unbounded (kappa = 1 exactly)."""
        if self.kappa_exact is not None:
            return int_valuation(self.kappa_exact - 1, self.context.p)
        v = self.context.int_valuation(self.kappa.residue - 1)
        return None if v is AT_LEAST_N else v

    def check_level(self, level: Level) -> Level:
        """Enforce normality: m <= n + v_p(kappa - 1)."""
        v = self.kappa_minus_one_valuation()
        if v is not None and level.m > level.n + v:
            raise ValidationError(
                "level-normality",
                f"level ({level.n},{level.m}) violates m <= n + v_p(kappa-1) = {level.n + v}",
            )
        if self.kappa_exact is None and level.m > self.context.N:
            raise ValidationError(
                "level-precision", "H-level exceeds what a residue-only kappa can certify"
            )
        return level

    def _kappa_int(self, exact: bool) -> int:
        return self.kappa_exact if exact else self.kappa.residue

    # -- the semilinear machinery ----------------------------------------------

    def _sigma_powers(self, m: int, q, e: int):
        """Powers of (1+Y)^e - 1 in the rank-p^m quotient; e = kappa^k mod p^m gives sigma^k(Y)."""
        p = self.context.p
        pm = p ** m
        s = [comb(e, j) if j else 0 for j in range(e + 1)]
        if q is not None:
            s = [c % q for c in s]
        table = [[1] + [0] * (pm - 1)]
        cur = table[0]
        for _ in range(1, pm):
            cur = po.reduce_mod_omega(po.pmul(cur, s, q), p, m, q)
            table.append(cur)
        return table

    def _apply_sigma(self, poly, table, q):
        out = [0] * len(table[0])
        for j, c in enumerate(poly):
            if c:
                tj = table[j]
                for t in range(len(out)):
                    out[t] += c * tj[t]
        if q is None:
            return out
        return [v % q for v in out]

    def sigma_power(self, f: PowerSeries, k: int, m: int) -> PowerSeries:
        """Image of f under sigma^k in the rank-p^m quotient of Z_p[[Y]].

        Only kappa^k mod p^m matters since (1+Y)^(p^m) = 1 there.
        """
        if f.variable != "Y":
            raise ValidationError("variable", "sigma acts on the variable Y")
        if not f.is_exact:
            raise ValidationError("exact-action", "sigma_power expects exact polynomials")
        ctx = self.context
        p, q = ctx.p, ctx.modulus
        pm = p ** m
        e = pow(self._kappa_int(self.kappa_exact is not None), k, pm)
        fbar = po.reduce_mod_omega(list(f.coeffs), p, m, q)
        out = self._apply_sigma(fbar, self._sigma_powers(m, q, e), q)
        return PowerSeries(ctx, "Y", tuple(out), exact_degree=pm - 1)

    def _gamma_power_rows(self, level: Level, exact: bool = False):
        """Matrix of the gamma-lift's p^n-th power on the staged quotient.

        Returns the (d*p^m)-square matrix of right multiplication by the
        cocycle product sigma^(p^n - 1)(A) ... sigma(A) A, in the basis
        e_i Y^t ordered by (i, t); sigma^(p^n) itself is trivial there by the
        level's normality.
        """
        self.check_level(level)
        key = (level.n, level.m)
        cache = self._exact_rows_cache if exact else self._rows_cache
        hit = cache.get(key)
        if hit is not None:
            return hit
        ctx = self.context
        p = ctx.p
        q = None if exact else ctx.modulus
        pn = p ** level.n
        pm = p ** level.m
        d = self.d
        if exact:
            ents = [[list(e) for e in row] for row in self.exact_entries]
        else:
            ents = [[list(e.coeffs) for e in row] for row in self.A]
        A_red = [[po.reduce_mod_omega(e, p, level.m, q) for e in row] for row in ents]
        table = self._sigma_powers(level.m, q, self._kappa_int(exact) % pm)
        C = A_red
        for _ in range(pn - 1):
            SC = [[self._apply_sigma(C[i][j], table, q) for j in range(d)] for i in range(d)]
            nxt = []
            for i in range(d):
                out_row = []
                for j in range(d):
                    acc = [0]
                    for t in range(d):
                        acc = po.padd(acc, po.pmul(SC[i][t], A_red[t][j], q), q)
                    out_row.append(po.reduce_mod_omega(acc, p, level.m, q))
                nxt.append(out_row)
            C = nxt
        D = d * pm
        rows = [[0] * D for _ in range(D)]
        for i in range(d):
            for j in range(d):
                block = po.mult_matrix_mod_omega(C[i][j], p, level.m, q)
                for r in range(pm):
                    rows[i * pm + r][j * pm: j * pm + pm] = block[r]
        cache[key] = rows
        return rows

    def gamma_power_matrix(self, level: Level):
        """Public wrapper returning PadicInt entries."""
        rows = self._gamma_power_rows(level)
        ctx = self.context
        return [[PadicInt(ctx, v) for v in row] for row in rows]

    # -- Akashi series ----------------------------------------------------------

    def akashi_series(self, level: Level) -> PowerSeries:
        """det((1+X) I - B) for the level's action matrix B, exact of degree d*p^m.

        Only the H-coinvariants contribute because the module is free over
        Z_p[[Y]]; higher H-homology vanishes.
        """
        key = (level.n, level.m)
        hit = self._akashi_cache.get(key)
        if hit is not None:
            return hit
        rows = self._gamma_power_rows(level)
        ctx = self.context
        q = ctx.modulus
        cp = kernels.charpoly_mod(rows, q)
        deg = len(cp) - 1
        ak = [0] * (deg + 1)
        for k, c in enumerate(cp):
            if c:
                for j in range(k + 1):
                    ak[j] = (ak[j] + c * comb(k, j)) % q
        out = PowerSeries(ctx, "X", tuple(ak), exact_degree=deg)
        self._akashi_cache[key] = out
        return out

    # -- Euler characteristics ----------------------------------------------------

    def _h0_infinite_exact(self, rho: Character, level: Level):
        """Exact-integer verdict on the finiteness of the twisted coinvariants.

        None when the module or character carries no exact data (then nothing
        may be asserted beyond the working precision).
        """
        if self.exact_entries is None or self.kappa_exact is None or rho.u_exact is None:
            return None
        rows = self._gamma_power_rows(level, exact=True)
        upn = rho.u_exact ** (self.context.p ** level.n)
        mat = [
            [upn * v - (1 if r == c else 0) for c, v in enumerate(row)]
            for r, row in enumerate(rows)
        ]
        return kernels.bareiss_det(mat) == 0

    def _undetermined(self, rho: Character, level: Level) -> EulerResult:
        verdict = self._h0_infinite_exact(rho, level)
        if verdict is True:
            return EulerResult(EulerStatus.NOT_FINITE)
        return EulerResult(EulerStatus.INDETERMINATE)

    def euler_reduced(self, rho: Character, level: Level) -> EulerResult:
        """Coinvariants staged through H: cokernel of u^(p^n) B - I over Z_p."""
        rows = self._gamma_power_rows(level)
        ctx = self.context
        q = ctx.modulus
        upn = pow(rho.u.residue, ctx.p ** level.n, q)
        mat = [
            [(upn * v - (1 if r == c else 0)) % q for c, v in enumerate(row)]
            for r, row in enumerate(rows)
        ]
        orders = cokernel_kernel_orders(smith_form_raw(mat, ctx))
        if orders.indeterminate:
            return self._undetermined(rho, level)
        return EulerResult.from_h0(orders.h0_exponent)

    def euler_akashi(self, rho: Character, level: Level) -> EulerResult:
        """Evaluate the Akashi polynomial at the twist: X = u^(-p^n) - 1."""
        ak = self.akashi_series(level)
        ctx = self.context
        q = ctx.modulus
        x0 = (pow(rho.u.residue, -(ctx.p ** level.n), q) - 1) % q
        v = ctx.int_valuation(po.poly_eval(list(ak.coeffs), x0, q))
        if v is AT_LEAST_N:
            return self._undetermined(rho, level)
        return EulerResult.from_h0(v)

    def group_ring_oracle(
        self, rho: Character, level: Level, size_cap: int = 2000
    ) -> EulerResult:
        """Full-size route over the finite group ring Z_p[G/U].

        Presents the twisted module over the whole quotient group in the basis
        g^a h^b (lexicographic) and takes one cokernel; independent of the
        staged reduction and of the Akashi evaluation.
        """
        self.check_level(level)
        ctx = self.context
        p = ctx.p
        D = self.d * p ** level.index_exponent
        if D > size_cap:
            raise SizeCapExceededError(f"group-ring rank {D} exceeds cap {size_cap}")
        mat = self._group_ring_rows(rho, level, exact=False)
        orders = cokernel_kernel_orders(smith_form_raw(mat, ctx))
        if orders.indeterminate:
            if self.exact_entries is None or self.kappa_exact is None or rho.u_exact is None:
                return EulerResult(EulerStatus.INDETERMINATE)
            exact_mat = self._group_ring_rows(rho, level, exact=True)
            if kernels.bareiss_det(exact_mat) == 0:
                return EulerResult(EulerStatus.NOT_FINITE)
            return EulerResult(EulerStatus.INDETERMINATE)
        return EulerResult.from_h0(orders.h0_exponent)

    def _group_ring_rows(self, rho: Character, level: Level, exact: bool):
        """Right multiplication by (g I - u A) on Z_p[G/U]^d.

        G/U = <g, h | g^(p^n), h^(p^m), g h g^-1 = h^kappa>; Y maps to h - 1.
        Basis e_i g^a h^b at index i*p^(n+m) + a*p^m + b.
        """
        ctx = self.context
        p = ctx.p
        q = None if exact else ctx.modulus
        pn = p ** level.n
        pm = p ** level.m
        pnm = pn * pm
        d = self.d
        u = rho.u_exact if exact else rho.u.residue
        kbar = self._kappa_int(exact) % pm
        kinv = pow(kbar, -1, pm) if pm > 1 else 0
        if exact:
            ents = [[list(e) for e in row] for row in self.exact_entries]
        else:
            ents = [[list(e.coeffs) for e in row] for row in self.A]
        # action entries rewritten in the h-power basis: Y -> h - 1, then h^pm = 1
        AH = [
            [po.cyclic_reduce(po.substitute_linear(e, -1, 1, q), pm, q) for e in row]
            for row in ents
        ]
        rows = [[0] * (d * pnm) for _ in range(d * pnm)]
        for i in range(d):
            for a in range(pn):
                a2 = (a + 1) % pn
                for b in range(pm):
                    row = rows[i * pnm + a * pm + b]
                    row[i * pnm + a2 * pm + (b * kinv) % pm] += 1
                    for j in range(d):
                        base = j * pnm + a * pm
                        for c, alpha in enumerate(AH[i][j]):
                            if alpha:
                                row[base + (b + c) % pm] -= u * alpha
        if q is not None:
            rows = [[v % q for v in row] for row in rows]
        return rows


def find_twist_crossed(module: CrossedModule, levels, budget: int = 25):
    """First u = 1+kp (k >= 0, trivial character included) finite at every level.

    The accepted candidate's certificate carries the per-level exponents of
    the staged route together with the Akashi-evaluation cross-check.
    """
    ctx = module.context
    levels = [module.check_level(lv) for lv in levels]
    records = []
    for k in range(0, budget):
        u = 1 + k * ctx.p
        rho = Character.from_int(ctx, u)
        outcomes = []
        ok = True
        for lv in levels:
            res = module.euler_reduced(rho, lv)
            outcomes.append(LevelOutcome((lv.n, lv.m), res.status, res.chi_exponent))
            if not res.exists:
                ok = False
                break
        if ok:
            crossed = []
            for lv, oc in zip(levels, outcomes):
                cross = module.euler_akashi(rho, lv)
                crossed.append(
                    LevelOutcome(oc.level, oc.status, oc.chi_exponent, cross.chi_exponent)
                )
            records.append(CandidateRecord(u, tuple(crossed), True))
            return rho, TwistSearchReport(u, tuple(records), budget)
        records.append(CandidateRecord(u, tuple(outcomes), False))
    report = TwistSearchReport(None, tuple(records), budget)
    err = BudgetExhaustedError(
        f"no candidate among 1+kp, k < {budget}, certified every requested level"
    )
    err.report = report
    raise err
