"""Exact integer certificates behind the NotFinite decisions.

Anything asserting that a cokernel is genuinely infinite (rather than merely
large at the working precision) works on true integers.  The gamma
certificate here is a handful of exact remainders of the twisted
characteristic polynomial by the cyclotomic Phi_(p^k), k <= n, with phi(p^k)
at most its degree, so its cost does not grow with the level p^n.  The
presentation determinant over Z[X] packs its entries into integers
(Kronecker substitution) and takes the one exact integer determinant,
`kernels.bareiss_det`, as does `sylvester_resultant`, the public reference
for the gamma certificate that no route calls.  Neither uses the modular
kernels, so tests can check those against these exact integers.
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

    Kronecker substitution: no coefficient of det F exceeds
    B = prod_i sum_j |F_ij|_1, since |det F|_1 is at most the sum over
    permutations s of prod_i |F_i,s(i)|_1, each a term of B.  With
    b = B.bit_length() + 1 every coefficient lies strictly inside
    (-2^(b-1), 2^(b-1)), so evaluating the entries at X = 2^b, taking the one
    integer determinant `bareiss_det` and reading its signed base-2^b digits
    recovers det F.  The package's only polynomial-matrix determinant;
    series determinants reduce it mod p^N.
    Returns the trimmed ascending coefficient list ([0] when singular).
    """
    bound = 1
    for row in entries:
        bound *= sum(abs(c) for e in row for c in e)
    b = bound.bit_length() + 1
    full = 1 << b
    det = bareiss_det([[po.poly_eval(e, full, None) for e in row] for row in entries])
    half = full >> 1
    out = []
    while det:
        c = det & (full - 1)
        if c >= half:
            c -= full
        out.append(c)
        det = (det - c) >> b
    return out or [0]


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
