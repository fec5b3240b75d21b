"""Matrix kernels over Z/p^N, in pure Python.

These are the hot inner loops of the package: elementary-divisor elimination,
determinants, the Hessenberg form by similarity (`hessenberg_mod`, O(n^3))
and from it the characteristic polynomial (`charpoly_mod`), for matrices
whose entries are residues modulo a prime power, plus `bareiss_det`, the
exact determinant of any integer matrix: the group-ring NotFinite
certificate, the Sylvester resultant and every polynomial-matrix determinant
over Z[X] (packed into integers: the gamma presentations and the crossed
Akashi values) run on it.

Conventions:
  * the modular kernels take lists of lists of nonnegative ints already
    reduced mod p^N; no kernel modifies its input;
  * `smith_exponents` and `det_mod` store each row of their copy reversed,
    last column first (see below);
  * valuation exponents >= N are encoded as -1 ("at least N");
  * pivot search is row-major first-unit (`hessenberg_mod`: first of least
    valuation in its column), so outputs are deterministic.

The word precision k is the largest k with p^k below CPython's int digit
base, where every residue is a single machine digit.  `precisions(p, N)`
lists the precisions a computation tries in turn: k first when k < N, then
N.  The exponents of a matrix mod p^k are min(e, k) of its exponents, so a
result none of whose divisors reaches p^k is exact at every N >= k.
`smith_ladder` is the one loop over that list: the Smith-based Euler routes
and `padic.smith_form_raw` hand it a builder of their rows mod p^P, and every
kernel makes one pass at the precision it is given.

`smith_exponents` and `det_mod` share the pivot search, the global
p-extraction and the elimination step; each keeps only its own bookkeeping
(the Smith shift; the determinant's unit, sign and valuation).  A row update
touches only the columns where the pivot row is nonzero, so sparse inputs
(the group-ring presentations) pay for their fill-in, not for their width.
On those the first-unit pivots walk the unit diagonal, so the pivot column
is the first logical one; stored last column first, it leaves every row by
an O(1) pop at the row's end instead of a shift of the whole row.
"""

import sys
from functools import cache
from itertools import compress
from math import gcd

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


@cache
def precisions(p, N):
    """The precisions to try in turn: (k, N) for the word precision 0 < k < N, else (N,)."""
    k = word_precision(p, N)
    return (k, N) if 0 < k < N else (N,)


def smith_ladder(build, p, N):
    """Smith exponents of the rows `build(p^P)` at the first P of `precisions(p, N)` with no -1.

    `build(q)` returns the matrix as residue rows mod q; an empty matrix
    (every unit split off) has no divisors and goes to no elimination.  The
    exponents mod p^P are min(e, P), so a result with no divisor at p^P is
    exact; when every precision has one, the result at N is returned, -1 and all.
    """
    for P in precisions(p, N):
        rows = build(p ** P)
        exps = smith_exponents(rows, p, P) if rows else []
        if -1 not in exps:
            break
    return exps


def smith_exponents(rows, p, N):
    """Elementary-divisor exponents of `rows` over Z/p^N, ascending, -1 = AtLeastN.

    One elimination at N, on a copy of the residue rows stored last column
    first; the exponents do not depend on the order of the columns.
    """
    return _smith([r[::-1] for r in rows], p, N)


def _smith(m, p, N):
    """Smith exponents of the residue rows `m` (stored reversed) over Z/p^N, eliminating in place.

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
    costing one digit of entry precision, and r >= 1.  Rows are stored last
    column first, so the Laplace sign reads the logical column len(row) - 1 - j.
    """
    qfull = p ** N
    m = [r[::-1] for r in rows]
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
        if (pi + len(m[pi]) - 1 - pj) & 1:
            sign = -sign
        _eliminate(m, pi, pj, q)
    d = (unit * pow(p, val, qfull)) % qfull
    if sign < 0:
        d = (-d) % qfull
    return d


def _unit_pivot(m, p):
    """Row-major first logical unit of `m` (rows read from their end) as stored (i, j), or None."""
    for i, row in enumerate(m):
        j = len(row)
        for a in reversed(row):
            j -= 1
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

    One pass: the pivot row leaves `m`, and every other row pops its column-pj
    entry and, when that is nonzero, updates only the pivot row's support (a
    column where the pivot row is zero is unchanged by it).
    """
    prow = m.pop(pi)
    inv = pow(prow.pop(pj), -1, q)
    support = [(t, prow[t]) for t in compress(range(len(prow)), prow)]
    for row in m:
        c = row.pop(pj)
        if c:
            c = c * inv % q
            for t, v in support:
                row[t] = (row[t] - c * v) % q


def hessenberg_mod(rows, q):
    """An upper Hessenberg matrix similar to `rows` over Z/q, entries in [0, q); q a prime power.

    Entries may be any integers; they are read mod q.  Column j pivots on
    the row-major first entry below the subdiagonal of least valuation
    (least gcd with q), swapped into row and column j + 1.  Every other
    entry a of the column is then a multiple of g = gcd(pivot, q), so
    s = (a/g) * (pivot/g)^-1 mod q/g has s * pivot = a mod q, and the
    conjugation by I - s * e_i e_(j+1)^T is a similarity over Z/q whatever
    the lift of s; the ring's non-units need no fallback.
    """
    n = len(rows)
    H = [[v % q for v in r] for r in rows]
    for j in range(n - 2):
        j1 = j + 1
        best, g = -1, q
        for i in range(j1, n):
            a = H[i][j]
            if a:
                ga = gcd(a, q)
                if ga < g:
                    best, g = i, ga
                    if g == 1:
                        break
        if best < 0:
            continue
        if best != j1:
            H[best], H[j1] = H[j1], H[best]
            for row in H:
                row[best], row[j1] = row[j1], row[best]
        qg = q // g
        inv = pow(H[j1][j] // g, -1, qg)
        prow = H[j1]
        support = [(t, prow[t]) for t in range(j1, n) if prow[t]]
        shifts = []
        for i in range(j1 + 1, n):
            row = H[i]
            a = row[j]
            if a:
                s = (a // g) * inv % qg
                shifts.append((i, s))
                row[j] = 0
                for t, v in support:
                    row[t] = (row[t] - s * v) % q
        if shifts:
            for row in H:
                acc = row[j1]
                for i, s in shifts:
                    acc += s * row[i]
                row[j1] = acc % q
    return H


def charpoly_mod(rows, q):
    """Coefficients of det(t*I - A) mod q, ascending in t; q must be a prime power.

    Entries may be any integers; they are read mod q.  Hessenberg method
    (Cohen, *A Course in Computational Algebraic Number Theory*, ch. 2),
    O(n^3): `hessenberg_mod`, then the division-free recurrence on the
    leading principal minors p_m = det(t*I - H[:m][:m]):

        p_m = (t - h_mm) p_(m-1)
              - sum_i h_(m-i),m * h_m,(m-1) ... h_(m-i+1),(m-i) * p_(m-i-1).
    """
    H = hessenberg_mod(rows, q)
    n = len(H)
    polys = [[1 % q]]
    for m in range(n):
        prev = polys[m]
        new = [0]
        new += prev
        h = H[m][m]
        if h:
            for k, c in enumerate(prev):
                new[k] -= h * c
        prod = 1
        for i in range(m - 1, -1, -1):
            prod = prod * H[i + 1][i] % q
            if not prod:
                break
            c = H[i][m] * prod % q
            if c:
                for k, v in enumerate(polys[i]):
                    new[k] -= c * v
        polys.append([v % q for v in new])
    return polys[n]


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
