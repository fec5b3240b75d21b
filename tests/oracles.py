"""Independent test oracles: sympy-backed and brute-force reference computations.

These deliberately avoid the package's own elimination and resultant code so
every dual-route check keeps two genuinely distinct sides.
"""

from math import comb

import sympy
from iwalab import EulerStatus, PadicInt, PowerSeries, kernels, twist_series, weierstrass_prepare
from iwalab import _polyops as po
from iwalab.crossed import _sigma_h
from sympy import QQ, ZZ, Matrix, Poly, symbols
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import hermite_normal_form

_T = symbols("t")


def int_valuation(x, p):
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def snf_exponents(rows, p, N):
    """Valuation exponents of the integer SNF, AtLeastN encoded as None."""
    M = Matrix(rows)
    S = smith_normal_form(M, domain=sympy.ZZ)
    k = min(M.rows, M.cols)
    out = []
    for i in range(k):
        v = int_valuation(int(S[i, i]), p)
        out.append(None if v is None or v >= N else v)
    return sorted(out, key=lambda e: (e is None, e))


def index_snf_exponents(rows, p, N):
    """`snf_exponents` read off lattice indices, for ranks where sympy's SNF stalls.

    With rows <= cols, the column lattice L of the matrix has
    [Z^r : L + p^j Z^r] = p^(sum_i min(e_i, j)), and the HNF of [M | p^j I]
    (mod D = p^(j r), a multiple of that index) has this index as its
    diagonal product; consecutive j give #{i : e_i >= j}.  Entries stay
    below D, so there is no coefficient explosion.
    """
    if len(rows) > len(rows[0]):
        rows = [list(c) for c in zip(*rows)]
    r, c = len(rows), len(rows[0])
    M = DomainMatrix([[ZZ(v) for v in row] for row in rows], (r, c), ZZ)
    infinite = r - M.convert_to(QQ).rank()

    def index_exponent(j):
        pj = p**j
        aug = [[ZZ(v) for v in row] + [ZZ(pj if t == i else 0) for t in range(r)]
               for i, row in enumerate(rows)]
        H = hermite_normal_form(DomainMatrix(aug, (r, c + r), ZZ), D=ZZ(p ** (j * r)))
        return sum(int_valuation(int(H[i, i].element), p) for i in range(r))

    out = []
    s_prev, at_least = 0, r
    for j in range(1, N + 1):
        if at_least == infinite:
            break
        s = index_exponent(j)
        out += [j - 1] * (at_least - (s - s_prev))
        s_prev, at_least = s, s - s_prev
    return out + [None] * at_least


def cofactor_det_mod(rows, q):
    """Division-free cofactor expansion determinant, reduced mod q."""
    n = len(rows)
    if n == 0:
        return 1 % q

    def expand(rs, cols):
        if len(cols) == 1:
            return rs[0][cols[0]]
        acc = 0
        sign = 1
        for idx, c in enumerate(cols):
            a = rs[0][c]
            if a:
                rest = cols[:idx] + cols[idx + 1:]
                acc += sign * a * expand(rs[1:], rest)
            sign = -sign
        return acc

    return expand(rows, list(range(n))) % q


def group_ring_rows_lex(kappa, entries, u, p, n, m):
    """g I - u A on Z[G/U]^d, G/U = <g, h | g^(p^n), h^(p^m), g h g^-1 = h^kappa>.

    Rows and columns in the lexicographic basis e_i g^a h^b at index
    i*p^(n+m) + a*p^m + b, the order the group-ring route used before its
    columns were permuted; entries of A(Y) become A(h - 1) mod h^(p^m) - 1 by
    the binomial theorem.  Exact integers.
    """
    pn, pm = p**n, p**m
    pnm = pn * pm
    d = len(entries)
    kinv = pow(kappa, -1, pm) if pm > 1 else 0

    def in_h(f):
        out = [0] * pm
        for t, c in enumerate(f):
            for s in range(t + 1):
                out[s % pm] += c * comb(t, s) * (-1) ** (t - s)
        return out

    AH = [[in_h(e) for e in row] for row in entries]
    rows = [[0] * (d * pnm) for _ in range(d * pnm)]
    for i in range(d):
        for a in range(pn):
            for b in range(pm):
                row = rows[i * pnm + a * pm + b]
                row[i * pnm + (a + 1) % pn * pm + b * kinv % pm] += 1
                for j in range(d):
                    for c, alpha in enumerate(AH[i][j]):
                        row[j * pnm + a * pm + (b + c) % pm] -= u * alpha
    return rows


def twisted_group_ring(f, order, q, c):
    """f(c*h - 1) folded mod h^order - 1: the twisted entry X -> c(1+X) - 1 in the h-basis.

    Substitutes before folding, since c^order is not 1 in general.
    """
    return po.cyclic_reduce(po.substitute_linear(f, -1, c, q), order, q)


def to_y(f, q):
    """h-basis coefficients of a staged-quotient element in the Y-basis (h = 1 + Y)."""
    return po.substitute_linear(f, 1, 1, q)


def sigma_power(X, f, k, m):
    """Image of the exact Y-series f under sigma^k in the rank-p^m quotient of Z_p[[Y]].

    The crossed module X works its staged quotient in the h-basis, where
    sigma^k permutes the basis by kappa^k mod p^m; this is that permutation
    read back in the Y-basis.
    """
    ctx = X.context
    q = ctx.modulus
    pm = ctx.p ** m
    e = pow(X.kappa_exact, k, pm)
    out = to_y(_sigma_h(po.to_group_ring(f.coeffs, pm, q), e), q)
    return PowerSeries(ctx, "Y", tuple(out), exact_degree=pm - 1)


def cocycle_residues(X, level, exact=False):
    """sigma^(p^n - 1)(A) ... sigma(A) A mod p^N in the h-basis, multiplied from the left.

    Dense products of residues: each factor sigma^k(A) permutes the h-basis
    of A(h - 1) by kappa^k mod p^m, and every product is reduced mod p^N;
    with `exact` the p^n - 1 products are taken over Z instead.
    """
    q = None if exact else X.context.modulus
    pm = X.context.p ** level.m
    A = [[po.to_group_ring(e, pm, q) for e in row] for row in X.exact_entries]
    d = len(A)
    C = A
    for k in range(1, X.context.p ** level.n):
        e = pow(X.kappa_exact, k, pm)
        S = [[_sigma_h(a, e) for a in row] for row in A]
        C = [
            [
                po.cyclic_reduce(
                    [sum(v) for v in zip(*(po.pmul(S[i][t], C[t][j], None) for t in range(d)))],
                    pm,
                    q,
                )
                for j in range(d)
            ]
            for i in range(d)
        ]
    return C


def cyclotomic_rows_circulant(C, p, k, q):
    """Matrix mod q of right multiplication by C on (Z[h]/Phi_{p^k}(h))^d, from whole circulants.

    Each entry of C[i] is folded mod h^(p^k) - 1 and its p^k x p^k circulant
    built; row (i, r) is the r-th row of each, r < phi(p^k), reduced mod
    Phi_{p^k} by `cyclotomic_fold` and then mod q.  The builder the Akashi
    blocks had before they took one rotation per row.
    """
    pk = p**k
    phi = pk - pk // p
    rows = []
    for Ci in C:
        circs = [po.circulant(po.cyclic_reduce(c, pk, None)) for c in Ci]
        for r in range(phi):
            row = []
            for circ in circs:
                row += [x % q for x in po.cyclotomic_fold(circ[r], p)]
            rows.append(row)
    return rows


def h0_infinite_block_circulant(X, rho, level):
    """det(u^(p^n) B - I) == 0 over Z, B the rank-d p^m block circulant of the exact cocycle.

    The crossed not-finite certificate before it was split over the
    cyclotomic blocks: one Bareiss determinant at the full level rank.
    """
    rows = po.block_circulant(X._cocycle(level))
    upn = rho.u_exact ** (X.context.p**level.n)
    mat = [[upn * v - (1 if r == c else 0) for c, v in enumerate(row)] for r, row in enumerate(rows)]
    return kernels.bareiss_det(mat) == 0


def akashi_value_exponent(X, rho, level):
    """v_p of the Akashi series at X = u^(-p^n) - 1 mod p^N; None when that value is 0 mod p^N.

    The series is expanded in full (`CrossedModule.akashi_series`) and
    evaluated at the twist mod p^N, independently of `euler_akashi`, which
    takes the value exactly over Z from one determinant over Z[h].
    """
    ctx = X.context
    q = ctx.modulus
    x0 = (pow(rho.u_exact, -(ctx.p ** level.n), q) - 1) % q
    value = po.poly_eval(list(X.akashi_series(level).coeffs), x0, q)
    return int_valuation(value, ctx.p) if value else None


def gamma_power_matrix(X, level):
    """X's level matrix in the basis e_i Y^t ordered by (i, t), with PadicInt entries.

    Row (i, r), block j holds the Y-coefficients of Y^r C[i][j] reduced mod
    omega_m, C the cocycle product in the h-basis.
    """
    C = X._cocycle(level)
    ctx = X.context
    q = ctx.modulus
    pm = len(C[0][0])
    y_powers = [po.to_group_ring([0] * r + [1], pm, q) for r in range(pm)]
    rows = []
    for Ci in C:
        for yr in y_powers:
            row = []
            for c in Ci:
                row += to_y(po.cyclic_reduce(po.pmul(yr, c, None), pm, q), q)
            rows.append([PadicInt(ctx, v) for v in row])
    return rows


def omega_fold(f, p, n, q):
    """f mod omega_n = (1+X)^(p^n) - 1 in the X-basis, reduced mod q (length p^n).

    Long division by the monic omega_n from the top coefficient down: the
    X-basis reduction the gamma layer used before its quotient moved to the
    group-ring basis h = 1 + X.
    """
    pn = p**n
    w = [comb(pn, k) for k in range(pn)]
    w[0] = 0
    r = list(f) + [0] * max(0, pn - len(f))
    for i in range(len(r) - 1, pn - 1, -1):
        t = r[i]
        r[i] = 0
        for k in range(1, pn):
            r[i - pn + k] -= t * w[k]
    return [c % q for c in r[:pn]]


def omega_mult_rows(f, p, n, q):
    """Rows of right multiplication by f on (Z/q)[X]/omega_n: row k is X^k f mod omega_n."""
    return [omega_fold([0] * k + list(f), p, n, q) for k in range(p**n)]


def direct_reference(M, rho, n, exponents=snf_exponents):
    """euler_direct in the X-basis: twist_series, long division by omega_n, then Smith.

    The gamma module M's integer entries become exact PowerSeries, and
    twist_series moves each one.  Returns (status, chi exponent).
    `exponents(rows, p, N)` gives the Smith exponents, None for AtLeastN;
    sympy's SNF by default.  Where sympy's SNF stalls (minutes at rank 75) a
    caller may pass the package's scalar Smith kernel instead: the X-basis
    matrix never meets `_polyops.split_units`.
    """
    ctx = M.context
    p = ctx.p
    pn = p**n
    q = ctx.modulus
    rows = []
    for Fi in M.exact_entries:
        blocks = [
            omega_mult_rows(
                twist_series(PowerSeries.from_ints(ctx, "X", e), rho, "inverse").coeffs, p, n, q
            )
            for e in Fi
        ]
        rows += [sum((b[k] for b in blocks), []) for k in range(pn)]
    exps = exponents(rows, p, ctx.N)
    if None in exps:
        return EulerStatus.INDETERMINATE, None
    return EulerStatus.EXISTS, sum(exps)


def xpow_mod(e, g, q):
    """X^e mod g over Z/q by binary powering; g has a unit leading coefficient and degree >= 1."""
    r = [1]
    for bit in bin(e)[2:]:
        r = po.poly_divmod_unit_lead(po.pmul(r, r, q), g, q)[1]
        if bit == "1":
            r = po.poly_divmod_unit_lead([0] + r, g, q)[1]
    return r


def mult_rows(f, g, q):
    """Rows of right multiplication by f on Z/q[X]/(g): row i is X^i * f mod g, padded to deg g.

    g has a unit leading coefficient, so the quotient is free on 1, X, ..., X^(deg g - 1).
    """
    dg = len(g) - 1
    rows = []
    row = f
    for _ in range(dg):
        row = po.poly_divmod_unit_lead(row, g, q)[1]
        row += [0] * (dg - len(row))
        rows.append(row)
        row = [0] + row
    return rows


def analytic_lambda_reference(M, rho, n):
    """The gamma analytic chi at level n from a lambda x lambda determinant mod p^(N - mu).

    chi = mu*p^n + v_p Res(h^(p^n) - 1, g) with g(h) = P(c*h - 1), c = u^-1
    and P the distinguished part of det F, known mod p^(N - mu).  g's
    leading coefficient c^lambda is a unit, so Z/p^e[h]/(g) is free of rank
    lambda, and the resultant is, up to sign and a unit, the determinant of
    multiplication by h^(p^n) - 1 on it.  The precision e runs over
    `kernels.precisions(p, N - mu)`; a determinant nonzero mod p^e gives
    its valuation exactly.  Returns chi, or None when every determinant is 0
    (not finite, or undecided at this precision).  A reference for
    `GammaModule.euler_analytic`, which sums exact cyclotomic norms instead.
    """
    p = M.context.p
    pn = p**n
    w = weierstrass_prepare(M.det)
    if not w.lam:
        return w.mu * pn
    for e in kernels.precisions(p, w.distinguished.context.N):
        q = p**e
        c = pow(rho.u_exact, -1, q)
        g = po.substitute_linear(w.distinguished.coeffs, -1, c, q)
        r = xpow_mod(pn, g, q)
        r[0] = (r[0] - 1) % q
        det = kernels.det_mod(mult_rows(r, g, q), p, e)
        if det:
            return w.mu * pn + int_valuation(det, p)
    return None


def split_units_interleaved(M, p, q):
    """Split the unit entries off a square matrix M over R = Z/q[h]/(h^n - 1), q a power of p.

    R is local with residue field F_p: an entry is a unit when its coefficient
    sum is prime to p.  For the row-major first unit a at (i, j), each other
    row r with column-j entry c becomes a*row_r - c*row_i; row i and column j
    then split off R/(a) = 0, so the rest (possibly []) has the same cokernel.
    A row of width w is one element of Z/q[h]/(h^(n w) - 1) with coefficient t
    of column k at t*w + k: a*row is one `pmul` by a spread to stride w.

    The reference for `_polyops.split_units`, which updates entry by entry
    with the same pivots and the same division-free rule.
    """
    n = len(M[0][0]) if M else 0
    w = len(M)
    rows = [[c for t in zip(*Mi) for c in t] for Mi in M]

    def spread(e, w):
        out = [0] * ((n - 1) * w + 1)
        out[::w] = e
        return out

    while True:
        pivot = next(((i, j) for i, row in enumerate(rows) for j in range(w)
                      if sum(row[j::w]) % p), None)
        if pivot is None:
            return [[row[k::w] for k in range(w)] for row in rows]
        i, j = pivot
        a = spread(rows[i][j::w], w)
        rest = []
        for r, row in enumerate(rows):
            if r == i:
                continue
            c = row[j::w]
            if any(c):
                row = po.cyclic_reduce(
                    po.psub(po.pmul(a, row, None), po.pmul(spread(c, w), rows[i], None), None),
                    n * w, q,
                )
            del row[j::w]
            rest.append(row)
        rows = rest
        w -= 1


def resultant_int(f, g):
    """Res(f, g) over Z via sympy (ascending integer coefficient lists).

    sympy's resultant given the factor of lower degree first can return
    Res(g, f), which differs by (-1)^(deg f * deg g): for f = T - 1 and
    g = [3, -3, -6, 6, -9, 3, 4, -9] it gives 11, not g(1) = -11.  So the
    factor of higher degree goes first and the sign is applied here.  The
    Sylvester determinant (`sylvester_det_int`) is the definition this is
    tested against; it is far too slow for the degrees the level tests
    reach (minutes at size 183, where this takes a fraction of a second).
    """
    pf = Poly(list(reversed(f)), _T)
    pg = Poly(list(reversed(g)), _T)
    if pf.is_zero or pg.is_zero:
        return 0
    m, n = pf.degree(), pg.degree()
    if m < n:
        return (-1) ** (m * n) * int(sympy.resultant(pg, pf))
    return int(sympy.resultant(pf, pg))


def sylvester_det_int(f, g):
    """Res(f, g) over Z as sympy's determinant of the Sylvester matrix (ascending lists)."""
    f = po.trim_int(f)
    g = po.trim_int(g)
    if f == [0] or g == [0]:
        return 0
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * j + g[::-1] + [0] * (m - 1 - j) for j in range(m)]
    return int(Matrix(rows).det()) if rows else 1


def twisted_char_poly_int(c, u):
    """u^D * c(u^-1 T - 1) = sum_k c_k u^(D-k) (T - u)^k in T (ascending), D = deg c.

    Horner in T - u over sympy's ZZ[T].
    """
    c = po.trim_int(c)
    D = len(c) - 1
    acc = Poly(0, _T, domain=ZZ)
    for k in range(D, -1, -1):
        acc = acc * Poly([1, -u], _T, domain=ZZ) + c[k] * u ** (D - k)
    return [int(a) for a in reversed(acc.all_coeffs())]


def shares_factor_int(f, g):
    """Do the integer polynomials f and g (ascending) have a nonconstant common factor?

    sympy's gcd over Z: Res(f, g) = 0 exactly when it does, and the gcd stays
    cheap at degrees where the resultant's pseudo-remainders blow up.
    """
    return sympy.gcd(Poly(list(reversed(f)), _T), Poly(list(reversed(g)), _T)).degree() > 0


def charpoly_desc(rows):
    """Integer charpoly of a matrix, descending coefficients, via sympy."""
    return [int(c) for c in Matrix(rows).charpoly().all_coeffs()]


def berkowitz_mod(rows, q):
    """Coefficients of det(t*I - A) mod q, ascending in t (Berkowitz, division-free).

    O(n^4) and free of pivoting, so it holds over any Z/q: the reference for
    `kernels.charpoly_mod`, which pivots.
    """
    n = len(rows)
    if n == 0:
        return [1 % q]
    C = [1 % q, (-rows[0][0]) % q]
    for r in range(2, n + 1):
        rm1 = r - 1
        d = rows[rm1][rm1]
        R = rows[rm1][:rm1]
        S = [rows[i][rm1] for i in range(rm1)]
        col = [1 % q, (-d) % q]
        v = S[:]
        for k in range(rm1):
            s = 0
            for i in range(rm1):
                s += R[i] * v[i]
            col.append((-s) % q)
            if k < rm1 - 1:
                w = [0] * rm1
                for i in range(rm1):
                    acc = 0
                    Mi = rows[i]
                    for j in range(rm1):
                        acc += Mi[j] * v[j]
                    w[i] = acc % q
                v = w
        newC = [0] * (r + 1)
        top = len(col) - 1
        for i in range(r + 1):
            lo = i - top
            if lo < 0:
                lo = 0
            hi = i if i < rm1 else rm1
            acc = 0
            for j in range(lo, hi + 1):
                acc += col[i - j] * C[j]
            newC[i] = acc % q
        C = newC
    C.reverse()
    return C


def det_int(rows):
    return int(Matrix(rows).det())


def poly_det_int(entries):
    """Determinant of a matrix of integer polynomials via sympy's ZZ[t] matrices.

    Entries and result are ascending coefficient lists; the result is trimmed
    ([0] for a singular matrix).
    """
    ring = ZZ[_T]
    n = len(entries)
    rows = [[ring.from_sympy(sum(c * _T**k for k, c in enumerate(e))) for e in row]
            for row in entries]
    det = ring.to_sympy(DomainMatrix(rows, (n, n), ring).det())
    return [int(c) for c in reversed(Poly(det, _T).all_coeffs())]


def gamma_not_finite(entries, u, p, n):
    """Is Phi_(p^k)(u(1 + X)) a factor of det F over Z for some k <= n?

    Its roots are zeta/u - 1 for the primitive p^k-th roots of unity zeta,
    and in h = 1 + X its constant term is Phi_(p^k)(0) = 1, so it is
    primitive and irreducible.  By Gauss's lemma the twist by u is not
    finite at level n exactly when one of them divides det F: sympy's
    determinant (`poly_det_int`) and division over ZZ, independent of both
    gamma routes and of `exactint.twisted_chi`.  A factor of degree
    phi(p^k) above deg det F cannot divide a nonzero det F, so those k are
    not tried (Phi_(p^k) has degree 11,638 at p = 23, k = 3); every one
    divides det F = 0.
    """
    det = Poly(list(reversed(poly_det_int(entries))), _T)
    twist = Poly([u, u], _T)
    return det.is_zero or any(
        det.rem(Poly(sympy.cyclotomic_poly(p**k, _T), _T).compose(twist)).is_zero
        for k in range(n + 1)
        if sympy.totient(p**k) <= det.degree()
    )


def poly_reduce_mod_int(f, g):
    """Remainder of f mod monic-over-Q g, exact over Z when g is monic (ascending)."""
    pf = Poly(list(reversed(f)), _T)
    pg = Poly(list(reversed(g)), _T)
    _, rem = sympy.div(pf, pg, _T)
    coeffs = [int(c) for c in Poly(rem, _T).all_coeffs()]
    return list(reversed(coeffs)) if coeffs else [0]


def _fp_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _fp_divmod(f, g, p):
    """Division with remainder in F_p[X]; g must have a unit leading coefficient."""
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    if len(f) - 1 < dg:
        return [0], _fp_trim(f)
    quo = [0] * (len(f) - dg)
    for i in range(len(f) - 1 - dg, -1, -1):
        t = (f[i + dg] * inv) % p
        if t:
            quo[i] = t
            for j, gc in enumerate(g):
                f[i + j] = (f[i + j] - t * gc) % p
    return _fp_trim(quo), _fp_trim(f[:dg] if dg else [0])


def _fp_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


def _fp_sub(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    return [(a[i] - (b[i] if i < len(b) else 0)) % p for i in range(n)]


def hensel_prepare_one_digit(f1, lam, p, N):
    """Weierstrass factorization f1 = P * U mod p^N, lifted one p-adic digit per pass.

    f1 has its first unit coefficient at index lam (lam >= 1); P is monic of
    degree lam and congruent to X^lam mod p.  Each pass fixes the next digit
    of (P, U) from the residual divided by p^k, with the mod-p Bezout
    cofactor of the unit part taken from sympy's extended Euclid over GF(p).
    """
    q = p ** N
    deg = len(f1) - 1
    pbar = [0] * lam + [1]
    ubar = _fp_trim([c % p for c in f1[lam:]])
    _, t, _ = Poly(list(reversed(pbar)), _T, modulus=p).gcdex(
        Poly(list(reversed(ubar)), _T, modulus=p))
    t = [int(c) % p for c in reversed(t.all_coeffs())]
    P = list(pbar)
    U = list(ubar) + [0] * (deg - lam + 1 - len(ubar))
    pk = p
    for _ in range(1, N):
        err = _fp_sub([c % q for c in f1], _fp_mul(P, U, q), q)
        if not any(err):
            break
        dig = _fp_trim([(c // pk) % p for c in err])
        _, A = _fp_divmod(_fp_mul(t, dig, p), pbar, p)
        B, _ = _fp_divmod(_fp_trim(_fp_sub(dig, _fp_mul(A, ubar, p), p)), pbar, p)
        for i, c in enumerate(A):
            P[i] = (P[i] + pk * c) % q
        for i, c in enumerate(B):
            if i >= len(U):
                U.extend([0] * (i + 1 - len(U)))
            U[i] = (U[i] + pk * c) % q
        pk *= p
    return P, _fp_trim(U)
