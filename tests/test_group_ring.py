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
    CrossedModule,
    EulerStatus,
    GammaModule,
    Level,
    PadicContext,
    PowerSeries,
    kernels,
    twist_series,
)
from iwalab.corpus import gamma_corpus
from iwalab.kernels import det_mod, smith_exponents

from oracles import (
    omega_fold,
    omega_mult_rows,
    poly_reduce_mod_int,
    split_units_interleaved,
    twisted_group_ring,
)

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
            c = pow(u, -1, q)
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
    """`split_units` keeps the cokernel: Smith of the block circulant loses one 0 per p^n rows.

    Its rest is the interleaved-row reference's (`oracles.split_units_interleaved`)
    exactly: the same pivots and the same division-free row rule.
    """

    @pytest.mark.parametrize("p,n", LEVELS)
    @pytest.mark.parametrize("N", [2, 6])
    def test_smith_of_remainder(self, p, n, N):
        # N = 2 stands for a low working precision; the last three matrices
        # have d = 8..10 where p^n <= 3, the widest presentations a level meets
        q = p**N
        pn = p**n
        rng = random.Random(1000 * p + 10 * n + N)
        split = set()
        for k in range(9):
            if pn <= 3 and k >= 6:
                d = rng.randint(8, 10)
            else:
                d = rng.randint(1, max(1, min(4, 100 // pn)))
            share = (0.0, 0.3, 0.8)[k % 3]  # the chance that an entry is a unit
            M = [[ring_element(rng, p, pn, q, rng.random() < share) for _ in range(d)]
                 for _ in range(d)]
            before = [[list(e) for e in row] for row in M]
            rest = po.split_units(M, p, q)
            assert M == before
            assert rest == split_units_interleaved(M, p, q), M
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
        # at the window mod 3^3, one of the two rows of the twisted
        # presentation by u = 4 still splits off
        F = [[[1, 2, 0, 5], [3, 1]], [[6, 0, 1], [9, 3, 3, 1]]]
        q = 3**3
        c = pow(4, -1, q)
        ring = [[twisted_group_ring(e, 3, q, c) for e in row] for row in F]
        assert len(po.split_units(ring, 3, q)) == 1


class TestRankOne:
    """A ring of rank 1 (gamma n = 0, crossed m = 0) is Z/q: its scalar matrix goes to Smith whole.

    No `split_units` may run there, and each route's `kernels.smith_ladder`
    must return what the Smith exponents of its `build(p^N)` give (-1 when a
    divisor reaches p^N).  The gamma direct route hands the ladder the
    twisted core's block circulant, which at n = 0 is the scalar matrix; the
    crossed staged route reaches it through `padic.group_ring_h0`.
    """

    @pytest.fixture
    def ladder_calls(self, monkeypatch):
        """Record (build, p, N, exponents) of every `kernels.smith_ladder`; count `split_units`."""
        calls = []
        splits = []
        ladder = kernels.smith_ladder
        split = po.split_units

        def recorded(build, p, N):
            exps = ladder(build, p, N)
            calls.append((build, p, N, exps))
            return exps

        def spy(M, p, q):
            splits.append(len(M))
            return split(M, p, q)

        monkeypatch.setattr(po, "split_units", spy)
        monkeypatch.setattr(kernels, "smith_ladder", recorded)
        return calls, splits

    @staticmethod
    def h0(exps):
        return None if -1 in exps else sum(exps)

    @classmethod
    def assert_smith_of_build(cls, calls, size):
        for build, p, N, exps in calls:
            rows = build(p**N)
            assert len(rows) == len(rows[0]) == size, rows
            assert cls.h0(exps) == cls.h0(smith_exponents(rows, p, N)), rows

    def test_gamma_level_zero(self, ladder_calls):
        calls, splits = ladder_calls
        statuses = set()
        cored = 0
        for p, seed in ((3, 5), (5, 6)):
            for M in gamma_corpus(seed, 4, p):
                for u in (1, 1 + p, 1 + 2 * p):
                    before = len(calls)
                    statuses.add(M.euler_direct(Character.from_int(M.context, u), 0).status)
                    # an empty core is answered at the call, with no ladder
                    assert len(calls) == before + bool(M._core), M.exact_entries
                    cored += bool(M._core)
                    self.assert_smith_of_build(calls[before:], len(M._core))
        assert splits == []
        assert len(calls) == cored > 0
        assert EulerStatus.EXISTS in statuses

    def test_crossed_m_zero(self, ladder_calls):
        # A(0) = [[1, 3], [0, 1]], so C - I at m = 0 is [[u' - 1, 3^(n+1) u'], [0, u' - 1]],
        # u' = u^(p^n): not finite at u = 1, chi = 2 v_3(u' - 1) otherwise
        calls, splits = ladder_calls
        X = CrossedModule.from_int_data(PadicContext(3, 64), 4, [[[1, 1], [3]], [[0], [1, 2]]])
        got = {}
        for n in range(3):
            for u in (1, 4, 10):
                r = X.euler_reduced(Character.from_int(X.context, u), Level(n, 0))
                got[n, u] = (r.status, r.chi_exponent)
        assert splits == []
        assert len(calls) == 9
        self.assert_smith_of_build(calls, X.d)
        for n in range(3):
            assert got[n, 1][0] is EulerStatus.NOT_FINITE
            assert got[n, 4] == (EulerStatus.EXISTS, 2 * (n + 1))
            assert got[n, 10] == (EulerStatus.EXISTS, 2 * (n + 2))

    def test_gamma_not_finite(self, ladder_calls):
        # det F = X (1 + X) vanishes at X = u^-1 - 1 = 0 for u = 1
        calls, splits = ladder_calls
        M = GammaModule.from_int_matrix(PadicContext(3, 64), [[[0, 1], [1]], [[0], [1, 1]]])
        r = M.euler_direct(Character.from_int(M.context, 1), 0)
        assert r.status is EulerStatus.NOT_FINITE
        assert splits == [] and [self.h0(e) for *_, e in calls] == [None]
        self.assert_smith_of_build(calls, len(M._core))

    def test_word_precision_falls_back_to_n(self, ladder_calls, monkeypatch):
        # det F = (X + 2*3^70) g with g(0) = 2, as in an escalation stanza: chi = 70 at
        # n = 0, u = 1, so the word pass at k = 9 saturates, N = 64 is undetermined
        # and N = 128 decides
        calls, splits = ladder_calls
        used = []
        smith = kernels.smith_exponents

        def recorded(rows, p, N):
            used.append(N)
            return smith(rows, p, N)

        monkeypatch.setattr(kernels, "smith_exponents", recorded)
        k = kernels.word_precision(3, 64)
        F = [[[2 * 3**70 + 1, 3], [1, 2]], [[2, 1, 3], [2, 1, 3]]]
        got = []
        for N in (64, 128):
            M = GammaModule.from_int_matrix(PadicContext(3, N), F)
            used.clear()
            r = M.euler_direct(Character.from_int(M.context, 1), 0)
            got.append((r.status, r.chi_exponent))
            assert used == [k, N], used
        assert got == [(EulerStatus.INDETERMINATE, None), (EulerStatus.EXISTS, 70)]
        assert splits == [] and [self.h0(e) for *_, e in calls] == [None, 70]
        monkeypatch.setattr(kernels, "smith_exponents", smith)
        self.assert_smith_of_build(calls, len(M._core))

