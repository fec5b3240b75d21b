"""Matrix kernels over Z/p^N, in pure Python.

These are the hot inner loops of the package: elementary-divisor elimination,
determinants, and division-free characteristic polynomials for matrices whose
entries are residues modulo p^N, plus `bareiss_det`, the exact determinant of
any integer matrix: the crossed NotFinite certificates, the Sylvester
resultant and every presentation determinant over Z[X] (packed into
integers) run on it.

Conventions:
  * the modular kernels take lists of lists of nonnegative ints already
    reduced mod p^N; no kernel modifies its input;
  * valuation exponents >= N are encoded as -1 ("at least N");
  * pivot search is row-major first-unit, so outputs are deterministic.

The word precision k is the largest k with p^k below CPython's int digit
base, where every residue is a single machine digit.  `precisions(p, N)`
lists the precisions a computation tries in turn: k first when k < N, then
N.  The exponents of a matrix mod p^k are min(e, k) of its exponents, so a
result none of whose divisors reaches p^k is exact at every N >= k.  The Euler
routes run their whole pipeline over that list, and `padic.smith_form_raw`
does the same for a caller that hands it residues mod p^N; every kernel makes
one pass at the precision it is given.

`smith_exponents` and `det_mod` share the pivot search, the global
p-extraction and the elimination step; each keeps only its own bookkeeping
(the Smith shift; the determinant's unit, sign and valuation).  A row update
touches only the columns where the pivot row is nonzero, so sparse inputs
(the group-ring presentations) pay for their fill-in, not for their width.
"""

import sys

KERNEL_IMPL = "python"

_DIGIT_BASE = 1 << sys.int_info.bits_per_digit


def word_precision(p, N):
    """Largest k <= N with p^k < the int digit base (0 when p itself is not below it)."""
    k = 0
    q = p
    while k < N and q < _DIGIT_BASE:
        k += 1
        q *= p
    return k


def precisions(p, N):
    """The precisions to try in turn: (k, N) for the word precision 0 < k < N, else (N,)."""
    k = word_precision(p, N)
    return (k, N) if 0 < k < N else (N,)


def smith_exponents(rows, p, N):
    """Elementary-divisor exponents of `rows` over Z/p^N, ascending, -1 = AtLeastN.

    One elimination at N, on a copy of the residue rows.
    """
    return _smith([list(r) for r in rows], p, N)


def _smith(m, p, N):
    """Smith exponents of the residue rows `m` over Z/p^N, eliminating in place.

    Local-ring elimination: pull a unit pivot (entry not divisible by p),
    clear its column, drop its row and column.  When no unit entry exists the
    whole active block is divisible by p, so p is factored out globally and
    the running shift increases; once the block vanishes at the remaining
    precision every outstanding divisor is AtLeastN.
    """
    k = min(len(m), len(m[0])) if m else 0
    out = []
    shift = 0
    q = p ** N
    while len(out) < k:
        pivot = _unit_pivot(m, p)
        if pivot is None:
            shift += 1
            if shift >= N or not _divide_out_p(m, p):
                break
            q //= p
            continue
        out.append(shift)
        _eliminate(m, *pivot, q)
    out.extend([-1] * (k - len(out)))
    return out


def det_mod(rows, p, N):
    """Determinant of a square matrix over Z/p^N, as a residue in [0, p^N).

    Exact: the returned residue is det mod p^N (0 means valuation >= N).
    Global p-extraction keeps the certified precision at N: a factor p taken
    out of an r x r block contributes r to the determinant's valuation while
    costing one digit of entry precision, and r >= 1.
    """
    qfull = p ** N
    m = [list(r) for r in rows]
    q = qfull
    val = 0
    unit = 1
    sign = 1
    while m:
        pivot = _unit_pivot(m, p)
        if pivot is None:
            val += len(m)
            if val >= N or not _divide_out_p(m, p):
                return 0
            q //= p
            continue
        pi, pj = pivot
        unit = (unit * m[pi][pj]) % qfull
        if (pi + pj) & 1:
            sign = -sign
        _eliminate(m, pi, pj, q)
    d = (unit * pow(p, val, qfull)) % qfull
    if sign < 0:
        d = (-d) % qfull
    return d


def _unit_pivot(m, p):
    """Row-major first entry of `m` not divisible by p, as (i, j); None when there is none."""
    for i, row in enumerate(m):
        for j, a in enumerate(row):
            if a and a % p:
                return i, j
    return None


def _divide_out_p(m, p):
    """Divide every entry of `m` by p in place (all are multiples of p); False when `m` is zero."""
    nonzero = False
    for row in m:
        for j, a in enumerate(row):
            if a:
                nonzero = True
                row[j] = a // p
    return nonzero


def _eliminate(m, pi, pj, q):
    """Clear column pj mod q with the unit pivot m[pi][pj], then drop its row and column.

    Each row update runs over the pivot row's support only: a column where
    the pivot row is zero is unchanged by it, and column pj itself is dropped.
    """
    prow = m[pi]
    inv = pow(prow[pj], -1, q)
    support = [(t, v) for t, v in enumerate(prow) if v and t != pj]
    for r, row in enumerate(m):
        c = row[pj]
        if c and r != pi:
            c = (c * inv) % q
            for t, v in support:
                row[t] = (row[t] - c * v) % q
    del m[pi]
    for row in m:
        del row[pj]


def charpoly_mod(rows, q):
    """Coefficients of det(t*I - A) mod q, ascending in t (Berkowitz, division-free)."""
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


def bareiss_det(rows):
    """Exact integer determinant by fraction-free (Bareiss) elimination.

    A row whose multiplier is 0 under a pivot equal to the previous one is
    skipped: its update (pivot * entry - 0) / previous pivot is the identity.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = m[k][k]
        prow = m[k]
        for i in range(k + 1, n):
            row = m[i]
            mik = row[k]
            if not mik and pkk == prev:
                continue
            for j in range(k + 1, n):
                row[j] = (pkk * row[j] - mik * prow[j]) // prev
            row[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]
