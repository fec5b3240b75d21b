"""The quotient Z_p[X]/omega_n as the group ring Z_p[h]/(h^(p^n) - 1), h = 1 + X.

`to_group_ring` moves a polynomial there and `circulant` is its
multiplication matrix.  The change of basis from the X-basis is unitriangular
over Z, so Smith exponents and determinants must equal those of the X-basis
multiplication matrix (`oracles.omega_mult_rows`, long division by omega_n).
"""

import random
from math import comb

import pytest

from iwalab import _polyops as po
from iwalab import (
    Character,
    EulerStatus,
    GammaModule,
    PadicContext,
    PowerSeries,
    PrecisionExhaustedError,
    twist_series,
)
from iwalab.kernels import det_mod, smith_exponents

from oracles import omega_fold, omega_mult_rows, poly_reduce_mod_int, snf_exponents

LEVELS = [(p, n) for p in (3, 5, 7) for n in (0, 1, 2)]


def sample_polys(rng, p, pn):
    """Integer polynomials of degree below p^n (no fold) and above it (folded)."""
    out = [[-p, 1], [0, 1], [p, p * p]]
    for deg in (0, pn - 1, pn, pn + 2, 2 * pn + 1):
        out.append([rng.randint(-9, 9) * p ** rng.randint(0, 1) for _ in range(deg + 1)])
    return out


class TestGroupRingBasis:
    def test_circulant_rows_are_shifts(self):
        assert po.circulant([1, 2, 3]) == [[1, 2, 3], [3, 1, 2], [2, 3, 1]]

    def test_block_circulant_layout(self):
        M = [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]
        assert po.block_circulant(M) == [
            [1, 2, 3, 4],
            [2, 1, 4, 3],
            [5, 6, 7, 8],
            [6, 5, 8, 7],
        ]

    def test_x_is_h_minus_one(self):
        # X^2 = h^2 - 2h + 1, and h^3 = 1 folds X^3 = h^3 - 3h^2 + 3h - 1 to -3h^2 + 3h
        assert po.to_group_ring([0, 0, 1], 3, None) == [1, -2, 1]
        assert po.to_group_ring([0, 0, 0, 1], 3, None) == [0, 3, -3]

    @pytest.mark.parametrize("p,n", [(3, 0), (3, 1), (3, 2), (5, 1)])
    def test_reference_fold_is_division_by_omega(self, p, n):
        pn = p**n
        omega = [0] + [comb(pn, k) for k in range(1, pn + 1)]
        q = p**8
        for f in sample_polys(random.Random(p + n), p, pn):
            want = poly_reduce_mod_int(f, omega)
            want = [c % q for c in want + [0] * (pn - len(want))]
            assert omega_fold(f, p, n, q) == want, f

    @pytest.mark.parametrize("p,n", LEVELS)
    def test_smith_and_det_match_x_basis(self, p, n):
        N = 8
        q = p**N
        pn = p**n
        rng = random.Random(100 * p + n)
        for f in sample_polys(rng, p, pn):
            got = po.circulant(po.to_group_ring(f, pn, q))
            want = omega_mult_rows(f, p, n, q)
            assert smith_exponents(got, p, N) == smith_exponents(want, p, N), f
            assert det_mod(got, p, N) == det_mod(want, p, N), f

    @pytest.mark.parametrize("p,n", LEVELS)
    def test_twist_is_scaling(self, p, n):
        # rho^-1 sends h to u^-1 h: substituting X = u^-1 h - 1 is twist_series
        # followed by the change of basis
        N = 8
        ctx = PadicContext(p, N)
        q = ctx.modulus
        pn = p**n
        rng = random.Random(200 * p + n)
        for u in (1 + p, 1 + p * p):
            rho = Character.from_int(ctx, u)
            c = rho.value_residue(inverse=True)
            for f in sample_polys(rng, p, pn):
                got = po.circulant(po.to_group_ring(f, pn, q, c))
                tw = twist_series(PowerSeries.from_ints(ctx, "X", f), rho, "inverse")
                want = omega_mult_rows(tw.coeffs, p, n, q)
                assert smith_exponents(got, p, N) == smith_exponents(want, p, N), (u, f)
                assert det_mod(got, p, N) == det_mod(want, p, N), (u, f)


def direct_reference(F, rho, n):
    """euler_direct in the X-basis: twist_series, long division by omega_n, sympy SNF."""
    ctx = F[0][0].context
    p = ctx.p
    pn = p**n
    neff = min([ctx.N] + [len(e.coeffs) // pn for row in F for e in row if not e.is_exact])
    q = p**neff
    rows = []
    for Fi in F:
        blocks = [omega_mult_rows(twist_series(e, rho, "inverse").coeffs, p, n, q) for e in Fi]
        rows += [sum((b[k] for b in blocks), []) for k in range(pn)]
    exps = snf_exponents(rows, p, neff)
    if None in exps:
        return EulerStatus.INDETERMINATE, None
    return EulerStatus.EXISTS, sum(exps)


def truncated(ctx, coeffs, w):
    return PowerSeries.truncated(ctx, "X", [c % ctx.modulus for c in coeffs], trunc=w)


class TestEulerDirectTruncated:
    def test_matches_x_basis_reference(self):
        seen = set()
        for p in (3, 5):
            ctx = PadicContext(p, 12)
            rng = random.Random(300 + p)
            for _ in range(12):
                d = rng.randint(1, 2)
                w = rng.randint(p * p, 40)
                F = [[truncated(ctx, [rng.randint(-9, 9) for _ in range(w)], w)
                      for _ in range(d)] for _ in range(d)]
                if d == 2:
                    # an exact entry beside truncated ones: only the latter bound the precision
                    F[0][1] = PowerSeries.from_ints(ctx, "X", [p, 1])
                try:
                    M = GammaModule(F)
                except PrecisionExhaustedError:
                    continue
                for u in (1, 1 + p):
                    rho = Character.from_int(ctx, u)
                    for n in range(3 if p == 3 else 2):
                        res = M.euler_direct(rho, n)
                        want = direct_reference(M.F, rho, n)
                        assert (res.status, res.chi_exponent) == want, (p, w, u, n)
                        neff = min(ctx.N, w // p**n)
                        seen.add((neff < ctx.N, res.status))
        assert {(True, EulerStatus.EXISTS), (False, EulerStatus.EXISTS)} <= seen

    def test_window_caps_the_precision(self):
        # 27(1 + X) at level 1: a window of 9 certifies floor(9/3) = 3 digits, all of
        # them 0, so the cokernel is undetermined; a window of 36 sees chi = 3^9
        ctx = PadicContext(3, 12)
        rho = Character.from_int(ctx, 4)
        short = GammaModule([[truncated(ctx, [27, 27], 9)]])
        long = GammaModule([[truncated(ctx, [27, 27], 36)]])
        assert short.euler_direct(rho, 1).status is EulerStatus.INDETERMINATE
        assert direct_reference(short.F, rho, 1) == (EulerStatus.INDETERMINATE, None)
        res = long.euler_direct(rho, 1)
        assert (res.status, res.chi_exponent) == (EulerStatus.EXISTS, 9)
        assert direct_reference(long.F, rho, 1) == (EulerStatus.EXISTS, 9)

    def test_window_shorter_than_level_raises(self):
        ctx = PadicContext(3, 12)
        M = GammaModule([[truncated(ctx, [1, 1, 2, 0, 1], 5)]])
        rho = Character.from_int(ctx, 4)
        assert M.euler_direct(rho, 1).exists
        with pytest.raises(PrecisionExhaustedError):
            M.euler_direct(rho, 2)
