"""Exact integer values behind the second routes and the NotFinite decisions.

Anything asserting that a cokernel is genuinely infinite (rather than merely
large at the working precision) works on true integers.  Both second routes
read a polynomial f in h over Z at the p^k-th roots of unity: its residue
mod Phi_(p^k) in R_k = Z[h]/Phi_(p^k)(h) (`cyclotomic_residue`) and the
p-adic valuation of that residue's norm to Q (`norm_valuation`), read off one
Taylor shift with no norm formed; a zero residue (a norm of 0) is the
certificate; `cyclotomic_valuation` sums those valuations over a set of k.
For gamma, f is the twisted characteristic polynomial P_u, read at k = 0 and
the k with phi(p^k) <= lambda (`twisted_chi`); for a crossed level, f is the
determinant over Z[h] of the twisted cocycle, read at every k <= m.  The
polynomial-matrix determinant packs its entries into integers (Kronecker
substitution) and takes the one exact integer determinant,
`kernels.bareiss_det`, as does `sylvester_resultant`, a public reference
that no route calls.  Neither uses the modular kernels, so tests can check
those against these exact integers.
"""

from __future__ import annotations

from . import _polyops as po
from .kernels import bareiss_det


def int_valuation(x: int, p: int):
    """v_p of a nonzero integer by O(log v) divisions, by p^(2^j) up, then down; None for 0."""
    if x == 0:
        return None
    v, q, powers = 0, p, []
    while x % q == 0:
        x //= q
        v += 1 << len(powers)
        powers.append(q)
        q *= q
    # now v_p(x) < 2^len(powers), and each power popped halves the bound
    while powers:
        q = powers.pop()
        if x % q == 0:
            x //= q
            v += 1 << len(powers)
    return v


def lambda_mu(f, p: int):
    """(lambda, mu) of a nonzero f in Z[X]: mu = min v_p(f_i), lambda = the first i reaching it."""
    vals = [int_valuation(c, p) for c in f]
    mu = min(v for v in vals if v is not None)
    return vals.index(mu), mu


def sylvester_resultant(f, g) -> int:
    """Res(f, g) over Z as the Sylvester determinant; f, g ascending, trimmed."""
    f = po.trim_int(f)
    g = po.trim_int(g)
    if f == [0] or g == [0]:
        return 0
    m = len(f) - 1
    n = len(g) - 1
    if m == 0 and n == 0:
        return 1
    fd = f[::-1]
    gd = g[::-1]
    rows = []
    for i in range(n):
        rows.append([0] * i + fd + [0] * (n - 1 - i))
    for j in range(m):
        rows.append([0] * j + gd + [0] * (m - 1 - j))
    return bareiss_det(rows)


def poly_mat_det(entries):
    """Determinant over Z[X] of a matrix of integer polynomials (ascending lists).

    Kronecker substitution: every coefficient of det F fits a signed slot of
    b bits (`_polyops.kronecker_bits`), so evaluating the entries at X = 2^b,
    taking the one integer determinant `bareiss_det` and reading its signed
    base-2^b digits (`_polyops.kronecker_unpack`) recovers det F.  The
    package's only polynomial-matrix determinant:
    series determinants reduce it mod p^N, and the crossed Akashi value
    reads it at the roots of unity.
    Returns the trimmed ascending coefficient list ([0] when singular).
    """
    b = po.kronecker_bits(entries)
    x = 1 << b
    det = bareiss_det([[po.poly_eval(e, x, None) for e in row] for row in entries])
    return po.kronecker_unpack(det, b)


def cyclotomic_residue(f, p: int, k: int):
    """f mod Phi_(p^k)(h) in R_k, by its phi(p^k) coefficients, for f in Z[h] (ascending).

    Folds f mod h^(p^k) - 1, then `_polyops.cyclotomic_fold`; at k = 0 this
    is [f(1)].
    """
    return po.cyclotomic_fold(po.cyclic_reduce(f, p ** k, None), p)


def norm_valuation(x, p: int) -> int:
    """v_p of the norm N(x(zeta)) to Q of a nonzero x in R_k = Z[h]/Phi_(p^k)(h).

    x is given by its phi(p^k) coefficients.

    Q_p(zeta) is totally ramified of degree phi over Q_p, with uniformizer
    pi = 1 - zeta of norm p (k >= 1), so v_p N(x) = v_pi(x).  With one Taylor
    shift x(1 - pi) = sum_i a_i pi^i, i < phi, and the terms have the
    distinct valuations phi*v_p(a_i) + i, so v_pi(x) is their least.  At
    k = 0 (phi = 1) that is v_p of x's one coefficient.  No norm is formed.
    """
    phi = len(x)
    return min(
        phi * int_valuation(a, p) + i
        for i, a in enumerate(po.substitute_linear(x, 1, -1, None))
        if a
    )


def cyclotomic_valuation(f, p: int, ks):
    """Sum of v_p N(f(zeta_(p^k))) over k in ks, f in Z[h]; None if a residue (read first) is 0."""
    residues = [cyclotomic_residue(f, p, k) for k in ks]
    if not all(map(any, residues)):
        return None
    return sum(norm_valuation(x, p) for x in residues)


def twisted_chi(det_h, u: int, p: int, n: int, lam: int, mu: int):
    """chi = v_p Res(h^(p^n) - 1, P_u) at gamma level n; None when the resultant is 0.

    P_u(h) = u^D det F(u^-1 h - 1) has coefficient b that of det_h = det F(h - 1)
    times u^(D - b); (lam, mu) are det F's.  chi is the sum over k <= n of
    t_k = v_p N(P_u(zeta_(p^k))).  The closed form: t_k = mu*phi(p^k) + lam
    when k >= 1 and phi(p^k) > lam (Washington, Introduction to Cyclotomic
    Fields, Thm. 13.13), and chi = mu*p^n when lam = 0.  So only k = 0 and
    the k with phi(p^k) <= lam, up to some last, are read
    (`cyclotomic_valuation`), and the rest sum to
    mu*(p^n - p^last) + lam*(n - last): the cost is set by lam, not p^n.
    Those residues need P_u only mod h^(p^last) - 1, so P_u is never formed:
    its coefficients fold into p^last accumulators, with one running power
    of u, and the memory is p^last values, not the D coefficients of P_u.
    """
    if not lam:
        return mu * p ** n
    last = 0
    while last < n and (p - 1) * p ** last <= lam:
        last += 1
    pl = p ** last
    acc = [0] * pl
    power = 1
    for b in range(len(det_h) - 1, -1, -1):
        if det_h[b]:
            acc[b % pl] += det_h[b] * power
        power *= u
    chi = cyclotomic_valuation(acc, p, range(last + 1))
    if chi is None:
        return None
    return chi + mu * (p ** n - p ** last) + lam * (n - last)


def gamma_h0_is_infinite(det_poly, u: int, p: int, n: int) -> bool:
    """Does the twisted presentation share a root with omega at level n?

    True exactly when det F, given over Z[X], has a root u^-1 zeta - 1 with
    zeta^(p^n) = 1: `twisted_chi` of det F(h - 1) is None.  No route calls it.
    """
    det_poly = po.trim_int(det_poly)
    if det_poly == [0]:
        return True
    lam, mu = lambda_mu(det_poly, p)
    det_h = po.h_shift(det_poly)
    return twisted_chi(det_h, u, p, n, lam, mu) is None
