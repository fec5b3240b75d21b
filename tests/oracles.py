"""Independent test oracles: sympy-backed and brute-force reference computations.

These deliberately avoid the package's own elimination and resultant code so
every dual-route check keeps two genuinely distinct sides.
"""

import sympy
from sympy import ZZ, Matrix, Poly, symbols
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

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


def resultant_int(f, g):
    """Res(f, g) over Z via sympy (ascending integer coefficient lists)."""
    pf = Poly(list(reversed(f)), _T)
    pg = Poly(list(reversed(g)), _T)
    return int(sympy.resultant(pf, pg))


def charpoly_desc(rows):
    """Integer charpoly of a matrix, descending coefficients, via sympy."""
    return [int(c) for c in Matrix(rows).charpoly().all_coeffs()]


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


def poly_reduce_mod_int(f, g):
    """Remainder of f mod monic-over-Q g, exact over Z when g is monic (ascending)."""
    pf = Poly(list(reversed(f)), _T)
    pg = Poly(list(reversed(g)), _T)
    _, rem = sympy.div(pf, pg, _T)
    coeffs = [int(c) for c in Poly(rem, _T).all_coeffs()]
    return list(reversed(coeffs)) if coeffs else [0]
