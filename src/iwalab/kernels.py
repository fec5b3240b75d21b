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

The word precision k is the half word: the largest k with p^(2k) below
CPython's int digit base (2^30 on 64-bit builds: k = 9, 6, 5 for p = 3, 5,
7).  A residue mod p^k, the product c*v of two of them and a row update
row[t] - c*v then all stay one digit, and CPython's int arithmetic on single
digits allocates no multi-digit number and takes its fast path.
`precisions(p, N)` lists the precisions a computation tries in turn: k first
when k < N, then N.  The exponents of a matrix mod p^k are min(e, k) of its
exponents, so a result none of whose divisors reaches p^k is exact at every
N >= k.  `smith_ladder` is the one loop over that list: the Smith-based
Euler routes and `padic.smith_form_raw` hand it a builder of their rows mod
p^P, and every kernel makes one pass at the precision it is given.

`smith_exponents` and `det_mod` share one elimination step, `_pivots`: the
pivot search, the p-power extraction and the row elimination, in one loop
with no call per pivot, since most calls are at ranks below 30; each keeps
only its own bookkeeping (the Smith shift; the determinant's unit, sign and
valuation).  A block with no unit gives up its whole common p-power
p^v = gcd(q, every entry) in one pass, not one pass per factor p.  The
pivot row is scaled by the pivot's inverse once, and not at all when the
pivot is 1, as every unit-diagonal pivot of a group-ring presentation is.
A row update touches only the columns where the pivot row is nonzero, so
sparse inputs (the group-ring presentations) pay for their fill-in, not for
their width.  On those the first-unit pivots walk the unit diagonal, so the
pivot column is the first logical one; stored last column first, it leaves
every row by an O(1) pop at the row's end instead of a shift of the whole
row.
"""

import sys
from functools import cache
from itertools import chain, compress
from math import gcd

KERNEL_IMPL = "python"

_DIGIT_BASE = 1 << sys.int_info.bits_per_digit


def word_precision(p, N):
    """Largest k <= N with p^(2k) below the int digit base (0 when p^2 is not below it)."""
    k = 0
    q = p * p
    while k < N and q < _DIGIT_BASE:
        k += 1
        q *= p * p
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

    Each pivot of `_pivots` is one divisor, p to the shift taken out before
    it; once the active block vanishes at the remaining precision (or runs
    out of rows or columns) every outstanding divisor is AtLeastN.
    """
    k = min(len(m), len(m[0])) if m else 0
    out = [shift for shift, _, _ in _pivots(m, p, N)]
    out.extend([-1] * (k - len(out)))
    return out


def det_mod(rows, p, N):
    """Determinant of a square matrix over Z/p^N, as a residue in [0, p^N).

    Exact: the returned residue is det mod p^N (0 means valuation >= N).
    Each pivot of `_pivots` contributes its unit, the p-power shift taken
    out before it and its Laplace sign: a factor p^v taken out of an r x r
    block is v in the shift of each of its r pivots, so r*v in the
    valuation, while costing v digits of entry precision, and r >= 1.
    """
    q = p ** N
    val = 0
    unit = 1
    odd = 0
    pivots = 0
    for shift, a, parity in _pivots([r[::-1] for r in rows], p, N):
        val += shift
        if val >= N:
            return 0
        unit = unit * a % q
        odd ^= parity
        pivots += 1
    if pivots < len(rows):
        return 0
    d = unit * p**val % q
    return (-d) % q if odd else d


def _pivots(m, p, N):
    """Eliminate the residue rows `m` (stored reversed) over Z/p^N in place, one pivot at a time.

    Local-ring elimination, the step `_smith` and `det_mod` share.  The
    pivot is the row-major first logical unit (rows read from their end).
    Yields (shift, pivot, parity) before it eliminates: the total p-power
    taken out so far, the pivot residue, and the parity of its Laplace sign
    (row i plus the logical column len(row) - 1 - j).  Then the pivot row
    leaves `m`, scaled once by the pivot's inverse unless the pivot is 1,
    and every other row pops its column-j entry c and, when c is nonzero,
    subtracts c times the pivot row on its support only (a column where the
    pivot row is zero is unchanged by it).  A block with no unit is
    divisible by p, and its whole common p-power is taken out at once
    (`_divide_out_p_power`), which lowers the precision by as many digits.
    Stops when the block has no row, no column, or no entry nonzero at the
    remaining precision.
    """
    q = p ** N
    shift = 0
    while m and m[0]:
        # the pivot a = m[i][j], stored indices; a block with no unit falls to the else
        for i, prow in enumerate(m):
            j = len(prow)
            for a in reversed(prow):
                j -= 1
                if a and a % p:
                    break
            else:
                continue
            break
        else:
            v = _divide_out_p_power(m, p, q)
            if not v:
                return
            shift += v
            q //= p**v
            continue
        yield shift, a, (i + len(prow) - 1 - j) & 1
        del m[i]
        prow.pop(j)
        support = [(t, prow[t]) for t in compress(range(len(prow)), prow)]
        if a != 1:
            inv = pow(a, -1, q)
            support = [(t, v * inv % q) for t, v in support]
        for row in m:
            c = row.pop(j)
            if c:
                for t, v in support:
                    row[t] = (row[t] - c * v) % q


def _divide_out_p_power(m, p, q):
    """Divide `m` in place by p^v = gcd(q, every entry), all multiples of p; v, or 0 when `m` is 0 mod q."""
    g = gcd(q, *chain.from_iterable(m))
    if g == q:
        return 0
    for row in m:
        for j, a in enumerate(row):
            if a:
                row[j] = a // g
    v = 1
    while g > p:
        g //= p
        v += 1
    return v


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
