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
    PadicContext,
    PowerSeries,
    twist_series,
)
from iwalab.kernels import det_mod, smith_exponents

from oracles import omega_fold, omega_mult_rows, poly_reduce_mod_int, twisted_group_ring

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
                got = po.circulant(twisted_group_ring(f, pn, q, c))
                tw = twist_series(PowerSeries.from_ints(ctx, "X", f), rho, "inverse")
                want = omega_mult_rows(tw.coeffs, p, n, q)
                assert smith_exponents(got, p, N) == smith_exponents(want, p, N), (u, f)
                assert det_mod(got, p, N) == det_mod(want, p, N), (u, f)


def ring_element(rng, p, pn, q, unit):
    """A random element of Z/q[h]/(h^pn - 1): a unit, or one whose coefficient sum is 0 mod p."""
    e = [rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(pn)]
    s = sum(e[1:])
    e[0] = (-s + (rng.randrange(1, p) if unit else p * rng.randrange(q))) % q
    return e


class TestSplitUnits:
    """`split_units` keeps the cokernel: Smith of the block circulant loses one 0 per p^n rows."""

    @pytest.mark.parametrize("p,n", LEVELS)
    @pytest.mark.parametrize("N", [2, 6])
    def test_smith_of_remainder(self, p, n, N):
        # N = 2 stands for a low working precision
        q = p**N
        pn = p**n
        rng = random.Random(1000 * p + 10 * n + N)
        split = set()
        for k in range(9):
            d = rng.randint(1, max(1, min(4, 100 // pn)))
            share = (0.0, 0.3, 0.8)[k % 3]  # the chance that an entry is a unit
            M = [[ring_element(rng, p, pn, q, rng.random() < share) for _ in range(d)]
                 for _ in range(d)]
            before = [[list(e) for e in row] for row in M]
            rest = po.split_units(M, p, q)
            assert M == before
            assert all(len(row) == len(rest) for row in rest)
            got = smith_exponents(po.block_circulant(rest), p, N) if rest else []
            want = smith_exponents(po.block_circulant(M), p, N)
            assert want == [0] * (pn * (d - len(rest))) + got, M
            split.add(len(rest) < d)
        assert split == {True, False}

    def test_no_unit_comes_back_unchanged(self):
        q = 3**4
        M = [[[3, 0, 0], [1, q - 1, 0]], [[0, 6, 3], [1, 1, 1]]]
        assert po.split_units(M, 3, q) == M

    def test_coefficient_sum_zero_is_not_a_pivot(self):
        # 1 - h has unit coefficients but lies in the maximal ideal (p, h - 1)
        q = 3**4
        one_minus_h = [1, q - 1, 0]
        assert po.split_units([[one_minus_h]], 3, q) == [[one_minus_h]]
        # so the pivot is the 1 at (0, 1): row 1 becomes
        # 1*[1 - h^2, 2] - 2*[1 - h, 1] = [-1 + 2h - h^2, 0], again no unit
        M = [[one_minus_h, [1, 0, 0]], [[1, 0, q - 1], [2, 0, 0]]]
        assert po.split_units(M, 3, q) == [[[q - 1, 2, q - 1]]]

    def test_unit_one_by_one_leaves_nothing(self):
        assert po.split_units([[[2, 0, 2]]], 3, 3**4) == []

    def test_pivot_in_a_later_row(self):
        # row 0 holds no unit; the pivot is the 1 at (1, 1), and row 0 becomes
        # 1*[3, 3h] - 3h*[3, 1] = [3 - 9h, 0]
        q = 3**4
        M = [[[3, 0, 0], [0, 3, 0]], [[3, 0, 0], [1, 0, 0]]]
        assert po.split_units(M, 3, q) == [[[3, q - 9, 0]]]

    def test_truncated_entries_split_at_the_window(self):
        # the quotient mod 3^3 lies below the character's precision 3^12: one
        # of the two rows of the twisted presentation still splits off there
        rho = Character.from_int(PadicContext(3, 12), 4)
        F = [[[1, 2, 0, 5], [3, 1]], [[6, 0, 1], [9, 3, 3, 1]]]
        q = 3**3
        c = rho.value_residue(inverse=True)
        ring = [[twisted_group_ring(e, 3, q, c) for e in row] for row in F]
        assert len(po.split_units(ring, 3, q)) == 1
