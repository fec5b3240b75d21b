"""Exact integer certificates behind the NotFinite decisions.

Anything asserting that a cokernel is genuinely infinite (rather than merely
large at the working precision) works on true integers.  The gamma
certificate here is a handful of exact remainders of the twisted
characteristic polynomial by the cyclotomic Phi_(p^k), k <= n, with phi(p^k)
at most its degree, so its cost does not grow with the level p^n.  The
presentation determinant is a fraction-free elimination over Z[X].
`sylvester_resultant` stays as the public reference for the gamma
certificate; no route calls it.  Kept separate from, and far smaller than,
the modular kernels so tests can treat those as independent.
"""

from __future__ import annotations

from . import _polyops as po
from .kernels import bareiss_det


def int_valuation(x: int, p: int):
    """v_p of a nonzero integer; None for 0 (infinite)."""
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


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
    size = m + n
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

    Fraction-free (Bareiss) elimination: step k replaces each trailing entry
    by (pivot * a_ij - a_ik * a_kj) / previous pivot, a division that is
    exact in Z[X] because the result is a minor of the input.  A zero pivot
    is swapped for the first nonzero entry below it.  The package's only
    polynomial-matrix determinant; series determinants reduce it mod p^N.
    Returns the trimmed ascending coefficient list ([0] when singular).
    """
    n = len(entries)
    if n == 0:
        return [1]
    m = [[po.trim_int(e) for e in row] for row in entries]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not any(m[k][k]):
            for i in range(k + 1, n):
                if any(m[i][k]):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return [0]
        pkk = m[k][k]
        prow = m[k]
        for i in range(k + 1, n):
            row = m[i]
            mik = row[k]
            for j in range(k + 1, n):
                t = po.pmul(pkk, row[j], None)
                if any(mik):
                    t = po.psub(t, po.pmul(mik, prow[j], None), None)
                row[j] = po.pdiv_exact(t, prev)
        prev = pkk
    det = m[n - 1][n - 1]
    return det if sign > 0 else [-c for c in det]


def twisted_char_poly(c, u: int):
    """u^D * c(u^{-1}T - 1) as an exact integer polynomial in T (D = deg c)."""
    c = po.trim_int(c)
    deg = len(c) - 1
    acc = [0]
    for k in range(deg, -1, -1):
        # acc = acc*(T - u) + c_k * u^(D-k)
        nxt = [0] * (len(acc) + 1)
        for i, v in enumerate(acc):
            nxt[i] -= v * u
            nxt[i + 1] += v
        nxt[0] += c[k] * u ** (deg - k)
        acc = nxt
    return po.trim_int(acc)


def cyclotomic_divides(f, p, k) -> bool:
    """Does Phi_(p^k)(T) divide the integer polynomial f (ascending) over Z?

    Phi_1 = T - 1 divides f exactly when f(1) = 0.  For k >= 1,
    Phi_(p^k)(T) = Phi_p(T^m), m = p^(k-1), divides T^(p^k) - 1, so f may be
    folded mod T^(p^k) - 1 first.  Z[T] is free over Z[T^m] on 1, ..., T^(m-1)
    and Phi_p(T^m) lies in Z[T^m], so the folded f is divisible exactly when
    each of its m strands c_b, c_(b+m), ..., c_(b+(p-1)m), a polynomial of
    degree < p in T^m, is a multiple of Phi_p: all p coefficients equal.
    """
    if k == 0:
        return sum(f) == 0
    m = p ** (k - 1)
    v = po.cyclic_reduce(f, p * m, None)
    return all(v[b::m].count(v[b]) == p for b in range(m))


def gamma_h0_is_infinite(det_poly, u: int, p: int, n: int) -> bool:
    """Does the twisted presentation share a root with omega at level n?

    True exactly when the determinant of the rho-twisted multiplication map
    on the rank-p^n quotient vanishes as a genuine p-adic number, i.e. the
    exact polynomial det has a root u^{-1}*zeta - 1 with zeta^(p^n) = 1:
    Res(T^(p^n) - 1, P_u) = 0 for P_u = `twisted_char_poly(det, u)`.  The
    p^n-th roots of unity are the roots of the monic irreducible Phi_(p^k),
    k <= n, so this asks whether one of them divides P_u over Z; one of
    degree phi(p^k) > deg P_u cannot.  The cost is set by deg P_u, not by p^n.
    """
    cs = twisted_char_poly(det_poly, u)
    if cs == [0]:
        return True
    phi = 1
    for k in range(n + 1):
        if phi > len(cs) - 1:
            break
        if cyclotomic_divides(cs, p, k):
            return True
        phi = (p - 1) * p ** k
    return False
