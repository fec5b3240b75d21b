"""Modules over the crossed product of H = Z_p by Gamma = Z_p (false-Tate type).

The datum is a free rank-d module over Z_p[[Y]] with a semilinear action of
the Gamma-lift: coefficients move by sigma (Y -> (1+Y)^kappa - 1) and the
basis moves by a matrix A with unit determinant.  Finite-level Euler
characteristics of twists come by three independent routes:

  * euler_reduced      - coinvariants staged through H first (small matrix);
  * euler_akashi       - the level's Akashi polynomial at the twist, exact
                         over Z: one determinant over Z[h], split over the
                         cyclotomic blocks;
  * group_ring_oracle  - one cokernel over the full finite group ring.

All three must agree; their agreement is this package's central test surface.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import _polyops as po
from . import exactint, kernels
from .errors import SizeCapExceededError, ValidationError
from .exactint import int_valuation
from .padic import PadicContext, group_ring_h0
from .results import DEFAULT_BUDGET, EulerResult, search_twists
from .series import Character, PowerSeries

# Largest matrix rank a route may build: the group-ring presentation has rank
# d*p^(n+m), and problem files are refused at parse time above it (gamma
# levels at d*p^n, crossed levels at d*p^(n+m)).
RANK_CAP = 2000

# Longest series entry of F or A, in coefficients: the h-basis shift and the
# presentation determinant cost the square of an entry's length or more
# before any level is formed, so problem files are refused at parse time above it.
LENGTH_CAP = 1024

# Largest working precision N: a problem file's precision, --precision and
# --max-precision (the escalation ceiling) are refused above it.  Every
# residue carries N digits, so the cost of a step grows with N^2.
PRECISION_CAP = 1024

# Largest twist-search budget (file key and --budget): find-twist runs and
# reports every candidate, so its time and report grow with the budget.
BUDGET_CAP = 1000


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

    def __iter__(self):
        return iter((self.n, self.m))


class CrossedModule:
    """Free Z_p[[Y]]-module of rank d with gamma-action x -> sigma(x) * A.

    The module holds the exact integer kappa, the exact integer coefficients
    of A (ascending in Y) and the same entries A(h - 1) in the basis of
    h = 1 + Y; each route takes their residues per precision, and the
    finiteness certificates use the integers.  The cocycle of a level and
    the Akashi value at a twist are exact integers, independent of N, so
    re-embeddings at other precisions share those two caches.
    """

    def __init__(self, ctx: PadicContext, kappa: int, entries, _entries_h=None):
        p = ctx.p
        entries = tuple(tuple(tuple(int(c) for c in e) for e in row) for row in entries)
        if any(not e for row in entries for e in row):
            raise ValidationError("nonempty", "a series needs at least one coefficient")
        if (kappa - 1) % p != 0:
            raise ValidationError("kappa-pro-p", "kappa must lie in 1 + pZ_p")
        d = len(entries)
        if d == 0 or any(len(row) != d for row in entries):
            raise ValidationError("square-action", "A must be a nonempty square matrix")
        # det(A)(0) = det(A(0)), so the unit check needs only the constant terms mod p
        if kernels.det_mod([[e[0] % p for e in row] for row in entries], p, 1) == 0:
            raise ValidationError(
                "unit-determinant", "det(A) must be a unit in Z_p[[Y]] (unit constant term)"
            )
        self.context = ctx
        self.d = d
        self.kappa_exact = kappa
        self.exact_entries = entries
        self._entries_h = po.h_basis(entries) if _entries_h is None else _entries_h
        self._cocycle_cache = {}
        self._akashi_cache = {}

    @classmethod
    def from_int_data(cls, ctx: PadicContext, kappa: int, entries) -> "CrossedModule":
        """Module from the integer kappa and A's integer coefficient lists."""
        return cls(ctx, kappa, entries)

    def with_precision(self, N: int) -> "CrossedModule":
        out = CrossedModule(
            self.context.with_precision(N), self.kappa_exact, self.exact_entries, self._entries_h
        )
        out._cocycle_cache = self._cocycle_cache
        out._akashi_cache = self._akashi_cache
        return out

    # -- levels ---------------------------------------------------------------

    def check_level(self, level: Level) -> Level:
        """Enforce normality: m <= n + v_p(kappa - 1) (no bound when kappa = 1)."""
        v = int_valuation(self.kappa_exact - 1, self.context.p)
        if v is not None and level.m > level.n + v:
            raise ValidationError(
                "level-normality",
                f"level ({level.n},{level.m}) violates m <= n + v_p(kappa-1) = {level.n + v}",
            )
        return level

    # -- the staged quotient in group-ring coordinates ---------------------------
    #
    # Z_p[Y]/omega_m is the group ring Z_p[h]/(h^(p^m) - 1) of H/H^(p^m), with
    # h = 1 + Y.  In the basis 1, h, ..., h^(p^m - 1) sigma permutes the basis
    # (h^b -> h^(kappa b)), products are cyclic convolutions and multiplication
    # by an element is a circulant.  The change of basis from the Y^t is
    # unitriangular over Z, so characteristic polynomials, determinants and
    # Smith exponents of the level matrix are those of its Y-basis form.

    def _action_h(self, m: int):
        """Entries of A(h - 1) mod h^(p^m) - 1 over Z: length-p^m lists in the h-basis."""
        pm = self.context.p ** m
        return [[po.cyclic_reduce(e, pm, None) for e in row] for row in self._entries_h]

    def _cocycle(self, level: Level):
        """The cocycle product sigma^(p^n - 1)(A) ... sigma(A) A over Z, entries in the h-basis.

        sigma^(p^n) itself is trivial on the staged quotient by the level's
        normality, so this product is the gamma-lift's p^n-th power.  It does
        not depend on N: every route reduces its own residues mod p^N.
        """
        self.check_level(level)
        return self._cocycle_power(level.n, level.m)

    def _cocycle_power(self, n: int, m: int):
        """C_(p^n) = sigma^(p^n - 1)(A) ... A mod h^(p^m) - 1 over Z, cached by (n, m).

        C_(a+b) = sigma^b(C_a) C_b, so C_(p^n) is p - 1 products
        C <- sigma^(p^(n-1))(C) C_(p^(n-1)) starting from C = C_(p^(n-1)):
        n(p - 1) products in all.  A level below n needs no normality, since
        sigma is a ring automorphism of every staged quotient.
        """
        key = (n, m)
        hit = self._cocycle_cache.get(key)
        if hit is not None:
            return hit
        if n == 0:
            C = self._action_h(m)
        else:
            p = self.context.p
            e = pow(self.kappa_exact, p ** (n - 1), p ** m)
            half = self._cocycle_power(n - 1, m)
            support = [[[(b, y) for b, y in enumerate(x) if y] for x in row] for row in half]
            C = half
            for _ in range(p - 1):
                C = _cyclic_matmul([[_sigma_h(x, e) for x in row] for row in C], support)
        self._cocycle_cache[key] = C
        return C

    # -- Akashi series ----------------------------------------------------------

    def akashi_series(self, level: Level) -> PowerSeries:
        """det((1+X) I - B) for the level's action matrix B, exact of degree d*p^m.

        Only the H-coinvariants contribute because the module is free over
        Z_p[[Y]]; higher H-homology vanishes.  h^(p^m) - 1 is the product of
        the cyclotomic Phi_{p^k}(h), k <= m, so the staged quotient splits
        over Q_p into the fields Q_p(zeta_{p^k}) and det(t - B) is the product
        of det(t - B_k), B_k the matrix of C on (Z_p[h]/Phi_{p^k}(h))^d (the
        Artin formalism of the Akashi series over the characters of H).  Each
        factor is an integral characteristic polynomial, here
        `kernels.charpoly_mod` of the block mod p^N, and the identity holds
        over Z, so the product is exact mod p^N; then t = 1 + X.  `iwalab
        akashi` prints it; the Euler routes need only its value at one point
        (`euler_akashi`).
        """
        q = self.context.modulus
        p = self.context.p
        C = self._cocycle(level)
        cp = [1]
        for k in range(level.m + 1):
            cp = po.pmul(cp, kernels.charpoly_mod(_cyclotomic_rows(C, p, k), q), q)
        ak = po.substitute_linear(cp, 1, 1, q)
        return PowerSeries(self.context, "X", tuple(ak), exact_degree=len(ak) - 1)

    # -- Euler characteristics ----------------------------------------------------

    def _akashi_exponent(self, rho: Character, level: Level):
        """v_p of det(u^(p^n) B - I) over Z for the exact level matrix B; None when it is 0.

        Up to a unit this is the Akashi polynomial at the twist, so its v_p is
        chi, and a value of 0 certifies infinite coinvariants at every
        precision.  Take D(h) = det(u^(p^n) C - I), the d x d determinant over
        Z[h] of the exact cocycle (`exactint.poly_mat_det`).  The determinant
        commutes with Z[h] -> R_k = Z[h]/Phi_{p^k}(h), and the determinant over
        Z of an R_k-linear map is the norm of its determinant over R_k, so the
        value is the product over k <= m of the norms of D mod Phi_{p^k} (the
        splitting of `akashi_series`), whose v_p, or None when one residue is
        0, is `exactint.cyclotomic_valuation`.  The value does not depend on
        N: it is cached by (u, n, m), and re-embeddings share it.
        """
        key = (rho.u_exact, level.n, level.m)
        if key not in self._akashi_cache:
            p = self.context.p
            upn = rho.u_exact ** (p ** level.n)
            M = [[[upn * v for v in e] for e in row] for row in self._cocycle(level)]
            for i, row in enumerate(M):
                row[i][0] -= 1
            D = exactint.poly_mat_det(M)
            self._akashi_cache[key] = exactint.cyclotomic_valuation(D, p, range(level.m + 1))
        return self._akashi_cache[key]

    def euler_reduced(self, rho: Character, level: Level) -> EulerResult:
        """Coinvariants staged through H: cokernel of u^(p^n) B - I over Z_p.

        Works u^(p^n) C - I over the staged quotient, C the exact cocycle
        product, through `padic.group_ring_h0`: unit entries split off, Smith
        takes the rest (at m = 0 the whole scalar matrix) on the ladder of
        `kernels.smith_ladder`.
        """
        rho.check_prime(self.context.p)
        p = self.context.p
        pn = p ** level.n
        C = self._cocycle(level)

        def build(q):
            upn = pow(rho.u_exact, pn, q)
            M = [[[upn * v % q for v in e] for e in row] for row in C]
            for i, row in enumerate(M):
                row[i][0] = (row[i][0] - 1) % q
            return M

        h0 = group_ring_h0(build, p, self.context.N)
        if h0 is None:
            return EulerResult.from_exact(self._akashi_exponent(rho, level), below=0)
        return EulerResult.from_h0(h0)

    def euler_akashi(self, rho: Character, level: Level) -> EulerResult:
        """Evaluate the Akashi polynomial at the twist: X = u^(-p^n) - 1.

        The value is exact (`_akashi_exponent`).  It decides when its v_p is
        below N, where its residue mod p^N is nonzero; a value of 0 is
        NotFinite, and a nonzero value of v_p >= N is indeterminate at N.
        """
        rho.check_prime(self.context.p)
        return EulerResult.from_exact(self._akashi_exponent(rho, level), below=self.context.N)

    def group_ring_oracle(self, rho: Character, level: Level) -> EulerResult:
        """Full-size route over the finite group ring Z_p[G/U].

        Presents the twisted module over the whole quotient group, rows e_i g^a h^b
        and columns permuted so that g's unit lies on the diagonal (see
        `_group_ring_rows`), and takes one cokernel; independent of the staged
        reduction and of the Akashi evaluation.  `kernels.smith_ladder` builds
        and eliminates the rows at the word precision first and at p^N only
        when a divisor reaches it; the NotFinite certificate is the Bareiss
        determinant of the exact rows.
        """
        rho.check_prime(self.context.p)
        self.check_level(level)
        p = self.context.p
        D = self.d * p ** level.index_exponent
        if D > RANK_CAP:
            raise SizeCapExceededError(f"group-ring rank {D} exceeds cap {RANK_CAP}")
        exps = kernels.smith_ladder(lambda q: self._group_ring_rows(rho, level, q), p, self.context.N)
        if -1 not in exps:
            return EulerResult.from_h0(sum(exps))
        det = kernels.bareiss_det(self._group_ring_rows(rho, level))
        return EulerResult.from_exact(int_valuation(det, p), below=0)

    def _group_ring_rows(self, rho: Character, level: Level, q=None):
        """Right multiplication by (g I - u A) on Z_p[G/U]^d, mod q (over Z when q is None).

        G/U = <g, h | g^(p^n), h^(p^m), g h g^-1 = h^kappa>; Y maps to h - 1.
        Row e_i g^a h^b sits at index (a*d + i)*p^m + b.  Column e_j g^a h^b
        sits at the index of row e_j g^(a-1) h^(b kappa), whose image under g
        it is, so g contributes exactly 1 on the diagonal and u A lands in
        block column a - 1 of row block a (block p^n - 1 for a = 0).  This
        column order is a permutation, which leaves the Smith exponents and
        the vanishing of the determinant unchanged; row-major first-unit
        elimination then walks the unit diagonal of blocks 0 .. p^n - 2 and
        fills in only the last block column.
        """
        p = self.context.p
        pn = p ** level.n
        pm = p ** level.m
        d = self.d
        D = d * pn * pm
        u = rho.u_exact
        kbar = self.kappa_exact % pm
        uA = [
            [[(c, -u * alpha if q is None else -u * alpha % q) for c, alpha in enumerate(e) if alpha]
             for e in row]
            for row in self._action_h(level.m)
        ]
        rows = []
        for a in range(pn):
            base = (a - 1) % pn * d * pm
            for uAi in uA:
                for b in range(pm):
                    row = [0] * D
                    for j, support in enumerate(uAi):
                        col = base + j * pm
                        for c, v in support:
                            row[col + (b + c) * kbar % pm] = v
                    k = len(rows)
                    row[k] += 1  # at level n = 0 the diagonal also holds an entry of u A
                    if q is not None:
                        row[k] %= q
                    rows.append(row)
        return rows


def _sigma_h(f, e):
    """sigma^k of an h-basis element, e = kappa^k mod p^m: h^b -> h^(e b)."""
    pm = len(f)
    out = [0] * pm
    for b, c in enumerate(f):
        out[b * e % pm] = c
    return out


def _cyclic_matmul(S, A_support):
    """Product S A of square matrices over Z[h]/(h^(p^m) - 1) in the h-basis, over Z.

    `A_support` lists each entry of the right factor by its nonzero
    (index, coefficient) pairs: the action matrix is sparse in this basis.
    """
    pm = len(S[0][0])
    d = len(S)
    out = []
    for Si in S:
        row = []
        for j in range(d):
            acc = [0] * (2 * pm - 1)
            for t in range(d):
                g = A_support[t][j]
                for a, x in enumerate(Si[t]):
                    if x:
                        for b, y in g:
                            acc[a + b] += x * y
            row.append(po.cyclic_reduce(acc, pm, None))
        out.append(row)
    return out


def _cyclotomic_rows(C, p, k):
    """Matrix over Z of right multiplication by C on (Z[h]/Phi_{p^k}(h))^d.

    Basis e_i h^t, t < phi(p^k), ordered by (i, t).  Row (i, r) is h^r C[i]:
    each entry of C[i] folds its indices mod p^k, turns by r places, and
    `_polyops.cyclotomic_fold` reduces it mod Phi_{p^k}; for k = 0 that reads
    off its value at h = 1.
    """
    pk = p ** k
    phi = pk - pk // p
    rows = []
    for Ci in C:
        folded = [po.cyclic_reduce(c, pk, None) for c in Ci]
        for r in range(phi):
            row = []
            for c in folded:
                row += po.cyclotomic_fold(c[pk - r:] + c[:pk - r], p)
            rows.append(row)
    return rows


def find_twist_crossed(module: CrossedModule, levels, budget: int = DEFAULT_BUDGET):
    """First u = 1+kp, k = 0, ..., budget - 1 (trivial character included), finite at every level.

    The candidate loop is `results.search_twists` on the staged route.  The
    accepted candidate's certificate carries the per-level exponents of the
    staged route together with the Akashi-evaluation cross-check.
    """
    levels = [module.check_level(lv) for lv in levels]
    rho, report = search_twists(
        module.context,
        range(budget),
        levels,
        module.euler_reduced,
        f"no candidate among 1+kp, k < {budget}, certified every requested level",
    )
    accepted = report.candidates[-1]
    crossed = tuple(
        replace(oc, cross_exponent=module.euler_akashi(rho, lv).chi_exponent)
        for lv, oc in zip(levels, accepted.outcomes)
    )
    candidates = report.candidates[:-1] + (replace(accepted, outcomes=crossed),)
    return rho, replace(report, candidates=candidates)
