import operator
import random
import sys

import pytest
from hypothesis import given, strategies as st

from iwalab import AT_LEAST_N, PadicContext, PadicInt, ValidationError
from iwalab.exactint import int_valuation
from iwalab.kernels import bareiss_det, det_mod, word_precision
from iwalab.padic import _AtLeastN, smith_form_raw

from oracles import cofactor_det_mod, int_valuation as naive_valuation, snf_exponents


def residues(ctx, rows):
    return [[v % ctx.modulus for v in r] for r in rows]


def planted_rows(rng, p, e, n=3):
    """U * diag(p^e * unit, small, ...) * V with unimodular U, V; e=None plants a zero divisor."""
    lead = 0 if e is None else p**e * rng.choice([1, -1, p + 1])
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = lead
    for i in range(1, n):
        rows[i][i] = rng.choice([1, -1]) * rng.randint(1, 40)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        for r in rows:
            r[j] += c * r[i]
    return rows


# the planted exponent e of `planted_rows` as a function of the word precision k,
# with the seed offset of its draws
PLANTED = {
    "0": (3, lambda k: 0),
    "k-1": (-1, lambda k: k - 1),
    "k": (0, lambda k: k),
    "k+1": (1, lambda k: k + 1),
    "2k": (4, lambda k: 2 * k),
    "150": (5, lambda k: 150),
    "singular": (2, lambda k: None),
}


class TestContext:
    def test_rejects_even_prime(self):
        with pytest.raises(ValidationError):
            PadicContext(2, 8)

    def test_rejects_composite(self):
        with pytest.raises(ValidationError):
            PadicContext(9, 8)

    def test_rejects_zero_precision(self):
        with pytest.raises(ValidationError):
            PadicContext(3, 0)

    def test_large_prime_ok(self):
        PadicContext(10**18 + 9, 2)


class TestAtLeastNOrder:
    """AT_LEAST_N is above every integer (bools and big ints too), equal only to itself,
    and unordered against anything else, read from either side."""

    OPS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)
    INTS = (0, 1, -1, 63, -(3**200), 3**200, True, False)
    UNORDERED = (1.5, float("inf"), None, "AtLeastN")

    @pytest.mark.parametrize("x", INTS, ids=repr)
    def test_above_every_integer(self, x):
        assert [op(AT_LEAST_N, x) for op in self.OPS] == [False, False, True, True, False, True]
        assert [op(x, AT_LEAST_N) for op in self.OPS] == [True, True, False, False, False, True]

    def test_against_itself(self):
        assert [op(AT_LEAST_N, AT_LEAST_N) for op in self.OPS] == [
            False, True, False, True, True, False]

    @pytest.mark.parametrize("x", UNORDERED, ids=repr)
    def test_unordered_against_other_types(self, x):
        assert AT_LEAST_N != x and x != AT_LEAST_N
        assert not (AT_LEAST_N == x or x == AT_LEAST_N)
        for op in self.OPS[:4]:
            for a, b in ((AT_LEAST_N, x), (x, AT_LEAST_N)):
                with pytest.raises(TypeError):
                    op(a, b)

    def test_singleton_repr_and_hash(self):
        assert _AtLeastN() is AT_LEAST_N
        assert repr(AT_LEAST_N) == "AtLeastN"
        assert hash(AT_LEAST_N) == hash("AtLeastN")
        assert {AT_LEAST_N: 1}[_AtLeastN()] == 1 and len({AT_LEAST_N, _AtLeastN(), 5}) == 2
        assert max([2, AT_LEAST_N, 7]) is AT_LEAST_N and min([AT_LEAST_N, 7]) == 7


class TestValuation:
    def test_nine_base_three(self):
        ctx = PadicContext(3, 8)
        assert PadicInt(ctx, 9).valuation() == 2

    def test_zero_is_at_least_n(self):
        ctx = PadicContext(3, 8)
        assert PadicInt(ctx, 0).valuation() is AT_LEAST_N

    def test_350_base_five(self):
        # oracle: 350 = 2 * 5^2 * 7 by integer factorization
        assert 350 == 2 * 5**2 * 7
        ctx = PadicContext(5, 4)
        assert PadicInt(ctx, 350).valuation() == 2

    def test_at_least_n_ordering(self):
        assert AT_LEAST_N > 63
        assert not (AT_LEAST_N < 10)
        assert sorted([AT_LEAST_N, 3, 0]) == [0, 3, AT_LEAST_N]

    @pytest.mark.parametrize("p", [3, 5, 7, 101])
    def test_planted_integer_valuations_match_a_naive_loop(self, p):
        # v straddles every power of two up to 4096, where the doubling turns back
        rng = random.Random(p)
        vs = list(range(70)) + [2**j + s for j in range(6, 13) for s in (-1, 0, 1)]
        vs += [rng.randint(70, 4000) for _ in range(8)]
        for v in vs:
            unit = rng.randint(1, p ** 30) * p + rng.randint(1, p - 1)
            for x in (unit * p**v, -unit * p**v):
                assert int_valuation(x, p) == naive_valuation(x, p) == v, (p, v)
        assert int_valuation(0, p) is None

    @pytest.mark.parametrize("p", [3, 5])
    def test_residue_valuations_match_the_integer_ones(self, p):
        ctx = PadicContext(p, 40)
        rng = random.Random(10 + p)
        for v in range(45):
            x = (rng.randint(1, p ** 5) * p + 1) * p**v
            want = v if v < 40 else AT_LEAST_N
            assert ctx.int_valuation(x) == want and ctx.int_valuation(-x) == want, (p, v)


class TestSmithForm:
    def test_already_diagonal(self):
        ctx = PadicContext(3, 8)
        assert smith_form_raw(residues(ctx, [[3, 0], [0, 1]]), ctx).exponents == (0, 1)

    def test_zero_matrix(self):
        ctx = PadicContext(3, 8)
        d = smith_form_raw(residues(ctx, [[0, 0], [0, 0]]), ctx)
        assert d.exponents == (AT_LEAST_N, AT_LEAST_N)

    def test_empty_matrix(self):
        for ctx in (PadicContext(3, 8), PadicContext(3, 64)):
            d = smith_form_raw([], ctx)
            assert (d.exponents, d.row_count, d.col_count) == ((), 0, 0)

    def test_three_six_nine_twelve(self):
        # oracle: integer Smith normal form has divisors 3 and 6
        assert snf_exponents([[3, 6], [9, 12]], 3, 8) == [1, 1]
        ctx = PadicContext(3, 8)
        assert smith_form_raw(residues(ctx, [[3, 6], [9, 12]]), ctx).exponents == (1, 1)

    def test_rectangular(self):
        ctx = PadicContext(3, 8)
        d = smith_form_raw(residues(ctx, [[1, 0, 0], [0, 3, 0]]), ctx)
        assert d.exponents == (0, 1)
        assert (d.row_count, d.col_count) == (2, 3)

    @given(st.integers(min_value=0, max_value=10**4), st.data())
    def test_matches_integer_snf(self, seed, data):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(n)]
        p, N = rng.choice([(3, 6), (5, 5), (5, 64), (7, 40)])
        ctx = PadicContext(p, N)
        got = smith_form_raw(residues(ctx, rows), ctx).exponents
        want = snf_exponents(rows, p, N)
        assert [None if e is AT_LEAST_N else e for e in got] == want

    @pytest.mark.parametrize(
        "p, planted",
        [pytest.param(p, name, id=f"{p}-{name}") for p in (3, 5, 7, 23, 32771) for name in PLANTED
         if word_precision(p, 256) or name != "k-1"],  # above 2^15 k = 0, so no k - 1
    )
    def test_matches_integer_snf_beyond_word_precision(self, p, planted):
        # A divisor p^e at the word precision k decides whether elimination
        # mod p^k suffices (e < k) or falls back to the full p^N; the half
        # word k is 9, 6, 5, 3 for p = 3, 5, 7, 23 on 30-bit digits, and 0
        # above 2^15 (no word pass).  N runs over 40, 64, k itself (where one
        # pass at N is all), k + 1 and 256.
        k = word_precision(p, 256)
        assert (p**k - 1) ** 2 < 1 << sys.int_info.bits_per_digit
        offset, planted_e = PLANTED[planted]
        e = planted_e(k)
        rng = random.Random(p * 10 + offset)
        for N in dict.fromkeys((40, 64, max(k, 1), k + 1, 256)):
            rows = planted_rows(rng, p, e)
            ctx = PadicContext(p, N)
            got = smith_form_raw(residues(ctx, rows), ctx).exponents
            want = snf_exponents(rows, p, N)
            assert (e if e is not None and e < N else None) in want
            assert [None if x is AT_LEAST_N else x for x in got] == want
            det = bareiss_det(rows)
            assert det_mod(residues(ctx, rows), p, N) == det % ctx.modulus

    @given(st.integers(min_value=0, max_value=10**4))
    def test_permutation_invariance(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        ctx = PadicContext(3, 8)
        rows = [[rng.randrange(ctx.modulus) for _ in range(n)] for _ in range(n)]
        base = smith_form_raw(rows, ctx).exponents
        perm_r = rng.sample(range(n), n)
        perm_c = rng.sample(range(n), n)
        shuffled = [[rows[i][j] for j in perm_c] for i in perm_r]
        assert smith_form_raw(shuffled, ctx).exponents == base

    @given(st.integers(min_value=0, max_value=10**4))
    def test_exponent_sum_is_det_valuation(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        ctx = PadicContext(3, 10)
        rows = [[rng.randrange(ctx.modulus) for _ in range(n)] for _ in range(n)]
        d = smith_form_raw(rows, ctx)
        if d.has_at_least_n:
            return
        det = cofactor_det_mod(rows, ctx.modulus)
        assert d.finite_sum == ctx.int_valuation(det)

    @given(st.integers(min_value=0, max_value=10**4))
    def test_raising_precision_is_stable(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        ints = [[rng.randint(-100, 100) for _ in range(n)] for _ in range(n)]
        lo = PadicContext(3, 6)
        dl = smith_form_raw(residues(lo, ints), lo).exponents
        for hi in (PadicContext(3, 12), PadicContext(3, 40)):
            dh = smith_form_raw(residues(hi, ints), hi).exponents
            for el, eh in zip(dl, dh):
                if el is not AT_LEAST_N:
                    assert el == eh
