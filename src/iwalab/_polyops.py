"""Raw polynomial helpers on plain coefficient lists (ascending powers).

Residue-level plumbing shared by the series, commutative and crossed layers.
All functions are pure; `q` is the working modulus p^N, or None for exact
integer arithmetic (used by the finiteness certificates).
"""

from itertools import accumulate
from math import comb
from operator import neg


def trim_int(coeffs):
    """Strip trailing exact-integer zeros; keeps at least one coefficient."""
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def padd(a, b, q):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = out[i] + x
    if q is None:
        return out
    return [v % q for v in out]


def psub(a, b, q):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = out[i] - x
    if q is None:
        return out
    return [v % q for v in out]


def pmul(a, b, q):
    n = len(a) + len(b) - 1
    out = [0] * n
    for i, x in enumerate(a):
        if not x:
            continue
        for k, y in enumerate(b, i):
            out[k] += x * y
    if q is None:
        return out
    return [v % q for v in out]


def poly_eval(coeffs, x, q):
    acc = 0
    if q is None:
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def substitute_linear(coeffs, e, c, q):
    """f(X) -> f(e + c*X) by Horner, with as many coefficients as f."""
    acc = []
    for a in reversed(coeffs):
        nxt = [0] * (len(acc) + 1)
        for i, v in enumerate(acc):
            if v:
                nxt[i] += v * e
                nxt[i + 1] += v * c
        nxt[0] += a
        acc = nxt if q is None else [v % q for v in nxt]
    return acc


def series_inverse(coeffs, q, trunc):
    """Multiplicative inverse of a series with unit constant term, mod (q, X^trunc)."""
    b0 = pow(coeffs[0], -1, q)
    out = [b0] + [0] * (trunc - 1)
    for k in range(1, trunc):
        s = 0
        top = min(k, len(coeffs) - 1)
        for j in range(1, top + 1):
            s += coeffs[j] * out[k - j]
        out[k] = (-b0 * s) % q
    return out


def omega_coeffs(p, n):
    """Exact integer coefficients of (1+X)^(p^n) - 1, ascending (degree p^n)."""
    pn = p ** n
    return [0] + [comb(pn, k) for k in range(1, pn + 1)]


def cyclic_reduce(coeffs, order, q):
    """Reduce modulo h^order - 1: indices wrap around."""
    out = [0] * order
    for i, c in enumerate(coeffs):
        out[i % order] += c
    if q is None:
        return out
    return [c % q for c in out]


def cyclotomic_fold(v, p):
    """v in Z[h]/(h^(p^k) - 1) (length p^k) reduced mod Phi_(p^k)(h) (length phi(p^k)).

    Phi_(p^k)(h) = sum_(j<p) h^(j s), s = p^(k-1), so h^(phi + t), t < s,
    becomes -sum_(j<p-1) h^(j s + t); at k = 0 v is already its value at h = 1.
    """
    pk = len(v)
    s = pk // p
    phi = pk - s
    out = v[:phi]
    for t in range(s):
        c = v[phi + t]
        if c:
            for j in range(t, phi, s):
                out[j] -= c
    return out


def h_shift(coeffs):
    """An integer polynomial f in X rewritten as f(h - 1) in h = 1 + X (the Taylor shift by -1).

    Horner's scheme in place: pass i, for i = 0, ..., n - 2, sets
    a_j -= a_(j+1) for j = n - 2 down to i, n(n - 1)/2 subtractions and no
    product.  With b_j = (-1)^j a_j a pass is the suffix sum
    b_j += b_(j+1), one `itertools.accumulate` over the reversed list.
    """
    r = list(coeffs)
    r[1::2] = map(neg, r[1::2])
    r.reverse()
    for m in range(len(r), 1, -1):
        r[:m] = accumulate(r[:m])
    r.reverse()
    r[1::2] = map(neg, r[1::2])
    return r


def h_basis(entries):
    """A matrix of integer polynomials in X, each entry rewritten as f(h - 1) in h = 1 + X."""
    return tuple(tuple(tuple(h_shift(e)) for e in row) for row in entries)


def kronecker_bits(entries):
    """Slot width b that packs a square polynomial matrix and all its minors at X = 2^b.

    No coefficient of a minor exceeds B = prod_i sum_j |F_ij|_1: its 1-norm is
    at most the sum over permutations of products of entry norms, each a term
    of the product over its rows, and a row left out has norm >= 1 unless
    det F = 0.  With b = B.bit_length() + 1 every coefficient lies strictly
    inside (-2^(b-1), 2^(b-1)), so `kronecker_unpack` recovers it.
    """
    bound = 1
    for row in entries:
        bound *= sum(abs(c) for e in row for c in e)
    return bound.bit_length() + 1


def kronecker_unpack(v, b):
    """The polynomial packed as v at X = 2^b: v's signed base-2^b digits, trimmed ([0] for 0)."""
    full = 1 << b
    half = full >> 1
    out = []
    while v:
        c = v & (full - 1)
        if c >= half:
            c -= full
        out.append(c)
        v = (v - c) >> b
    return out or [0]


def to_group_ring(coeffs, order, q):
    """f(X) as an element of Z[h]/(h^order - 1), h = 1 + X, in the basis 1, h, ...

    Substitutes X = h - 1, then folds indices mod order.
    """
    return cyclic_reduce(substitute_linear(coeffs, -1, 1, q), order, q)


def circulant(c):
    """Rows of right multiplication by c on Z[h]/(h^len(c) - 1): row r is h^r * c."""
    n = len(c)
    return [c[n - r:] + c[:n - r] for r in range(n)]


def block_circulant(M):
    """Rows of right multiplication by the matrix M over Z[h]/(h^n - 1) on row vectors.

    Basis e_i h^t ordered by (i, t); block (i, j) is the circulant of M[i][j].
    """
    rows = []
    for Mi in M:
        blocks = [circulant(c) for c in Mi]
        for r in range(len(blocks[0])):
            row = []
            for b in blocks:
                row += b[r]
            rows.append(row)
    return rows


def split_units(M, p, q):
    """Split the unit entries off a square matrix M over R = Z/q[h]/(h^n - 1), q a power of p.

    R is local with residue field F_p: an entry is a unit when its coefficient
    sum is prime to p.  For the row-major first unit a at (i, j), each other
    row r with column-j entry c becomes a*row_r - c*row_i; row i and column j
    then split off R/(a) = 0, so the rest (possibly []) has the same cokernel.
    The update runs entry by entry: a*e - c*f, f the pivot row's entry in e's
    column, is summed over the nonzero coefficients of a and c into one
    accumulator of length 2n, folded mod h^n - 1 and reduced mod q once.
    """
    rows = [list(row) for row in M]
    while True:
        pivot = next(((i, j) for i, row in enumerate(rows) for j, e in enumerate(row)
                      if sum(e) % p), None)
        if pivot is None:
            return rows
        i, j = pivot
        prow = rows.pop(i)
        unit = prow.pop(j)
        n = len(unit)
        a = [(s, x) for s, x in enumerate(unit) if x]
        for row in rows:
            c = [(s, x) for s, x in enumerate(row.pop(j)) if x]
            if not c:
                continue
            for k, (e, f) in enumerate(zip(row, prow)):
                acc = [0] * (2 * n)
                for s, x in a:
                    for t, y in enumerate(e, s):
                        acc[t] += x * y
                for s, x in c:
                    for t, y in enumerate(f, s):
                        acc[t] -= x * y
                row[k] = [(u + v) % q for u, v in zip(acc, acc[n:])]


def poly_divmod_unit_lead(f, g, q):
    """Long division f = q*g + r over Z/q for g with unit leading coefficient."""
    dg = len(g) - 1
    if len(f) - 1 < dg:
        return [0], [c % q for c in f]
    rem = list(f)
    inv = pow(g[-1], -1, q)
    low = g[:dg]
    quo = [0] * (len(rem) - dg)
    for i in range(len(rem) - 1 - dg, -1, -1):
        t = (rem[i + dg] * inv) % q
        if t:
            quo[i] = t
            for j, gc in enumerate(low):
                rem[i + j] -= t * gc
    return quo, [c % q for c in rem[:dg]] if dg else [0]
