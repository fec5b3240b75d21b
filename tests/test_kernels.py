"""The kernels must agree with external integer oracles."""

import random
import sys
from itertools import permutations

import pytest

from iwalab import kernels

from oracles import (
    berkowitz_mod,
    charpoly_desc,
    det_int,
    group_ring_rows_lex,
    index_snf_exponents,
    int_valuation,
    snf_exponents,
)


def rand_matrix(rng, n, q):
    return [[rng.randrange(q) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("impl", [kernels], ids=[kernels.KERNEL_IMPL])
class TestAgainstOracles:
    def test_det_mod_vs_integer_det(self, impl):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
            p, N = rng.choice([(3, 10), (5, 8)])
            q = p**N
            got = impl.det_mod([[v % q for v in r] for r in rows], p, N)
            assert got == det_int(rows) % q

    def test_charpoly_vs_sympy(self, impl):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            q = 3**9
            got = impl.charpoly_mod([[v % q for v in r] for r in rows], q)
            want = [c % q for c in reversed(charpoly_desc(rows))]
            assert got == want

    def test_smith_vs_integer_snf(self, impl):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(n)]
            p, N = rng.choice([(3, 7), (5, 6)])
            q = p**N
            got = impl.smith_exponents([[v % q for v in r] for r in rows], p, N)
            got = [None if e < 0 else e for e in got]
            assert got == snf_exponents(rows, p, N)

    def test_bareiss_vs_sympy(self, impl):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-60, 60) for _ in range(n)] for _ in range(n)]
            assert impl.bareiss_det(rows) == det_int(rows)

    def test_det_valuation_matches_smith_sum(self, impl):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(1, 5)
            p, N = 3, 9
            q = p**N
            rows = rand_matrix(rng, n, q)
            exps = impl.smith_exponents(rows, p, N)
            det = impl.det_mod(rows, p, N)
            if -1 in exps:
                assert det == 0
            else:
                assert int_valuation(det, p) == sum(exps)


def cyclic(n, u):
    """I - u*P, P the cyclic shift: the shape of a group-ring presentation g*I - u*A."""
    return [[(j == i) - u * (j == (i + 1) % n) for j in range(n)] for i in range(n)]


def structured_inputs(p, rng):
    """Sparse and degenerate integer matrices, square and rectangular."""
    yield cyclic(40, 1 + p)  # det 1 - (1+p)^40, valuation 1 + v_p(40)
    yield cyclic(30, p)  # unit determinant
    yield cyclic(10, 1 + p**20)  # a divisor beyond p^k, k the word precision
    yield cyclic(12, -1)  # I + P at even n: singular
    one = [[rng.choice([0, 0, p, p * p, 1]) for _ in range(9)] for _ in range(9)]
    one[0] = [0] * 9
    one[0][4] = 1 + p  # pivot row with a single nonzero
    yield one
    holes = [[rng.randint(-20, 20) * rng.choice([1, p]) for _ in range(8)] for _ in range(8)]
    holes[3] = [0] * 8  # zero row and zero column
    for row in holes:
        row[5] = 0
    yield holes
    yield [[rng.randint(-9, 9) * p ** rng.randint(0, 2) for _ in range(7)] for _ in range(4)]
    yield [[rng.randint(-9, 9) * p ** rng.randint(0, 2) for _ in range(3)] for _ in range(6)]


def check_kernels(rows, p, exponents, det):
    """smith_exponents and det_mod on `rows` mod p^N against the oracles' answers.

    N runs over the word precision k and beyond it (40, 64), one elimination at
    each, which must report the divisors beyond p^k; `exponents` are the
    oracle's at N = 64, `det` is None for a rectangular input.  Neither kernel
    may modify `red`: each eliminates on its own reversed copy.
    """
    for N in (kernels.word_precision(p, 64), 40, 64):
        q = p**N
        red = [[v % q for v in r] for r in rows]
        before = [list(r) for r in red]
        got = [None if e < 0 else e for e in kernels.smith_exponents(red, p, N)]
        assert got == [e if e is not None and e < N else None for e in exponents]
        assert red == before
        if det is not None:
            assert kernels.det_mod(red, p, N) == det % q
            assert red == before


class TestStructuredInputs:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_smith_and_det_vs_oracles(self, p):
        rng = random.Random(p)
        for rows in structured_inputs(p, rng):
            det = det_int(rows) if len(rows) == len(rows[0]) else None
            check_kernels(rows, p, snf_exponents(rows, p, 64), det)

    @pytest.mark.parametrize(
        "p, kappa, entries, level, u",
        [
            (3, 4, [[[1, 1], [0, 2]], [[3], [1, 0, 1]]], (2, 1), 4),  # rank 54
            (5, 6, [[[1, 1], [0, 2]], [[5], [1, 0, 1]]], (1, 1), 1),  # rank 50, singular
        ],
    )
    def test_group_ring_rows_vs_oracles(self, p, kappa, entries, level, u):
        from iwalab import Character, CrossedModule, Level, PadicContext

        ctx = PadicContext(p, 64)
        module = CrossedModule.from_int_data(ctx, kappa, entries)
        rows = module._group_ring_rows(Character.from_int(ctx, u), Level(*level))
        assert len(rows) >= 50
        det = det_int(rows)
        check_kernels(rows, p, index_snf_exponents(rows, p, 64), det)
        assert kernels.bareiss_det(rows) == det

    def test_index_oracle_vs_integer_snf(self):
        rng = random.Random(9)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.choice([0, 1, -1, p, p * p, rng.randint(-30, 30)]) for _ in range(nc)]
                    for _ in range(nr)]
            N = rng.choice([1, 3, 6])
            assert index_snf_exponents(rows, p, N) == snf_exponents(rows, p, N)


def check_charpoly(rows, q):
    """charpoly_mod against Berkowitz and sympy's integer charpoly, input left untouched;
    hessenberg_mod of the same rows upper Hessenberg and reduced."""
    before = [list(r) for r in rows]
    got = kernels.charpoly_mod(rows, q)
    assert rows == before
    want = berkowitz_mod(rows, q)
    assert got == want
    assert got == [c % q for c in reversed(charpoly_desc(rows))]
    check_hessenberg(rows, q)


def check_hessenberg(rows, q):
    """hessenberg_mod leaves its input untouched and is upper Hessenberg with entries in [0, q)."""
    before = [list(r) for r in rows]
    H = kernels.hessenberg_mod(rows, q)
    assert rows == before
    assert all(H[i][j] == 0 for i in range(len(H)) for j in range(i - 1))
    assert all(0 <= v < q for row in H for v in row)


def with_subcolumn(rng, sub, q):
    """A random matrix whose column 0 below the diagonal is `sub`."""
    n = len(sub) + 1
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
    for i, a in enumerate(sub, 1):
        rows[i][0] = a
    return rows


class TestCharpolyPivot:
    """The Hessenberg reduction pivots on the least valuation, over Z/p^N with its non-units."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_unit_after_non_unit(self, p):
        # subcolumn (p, 1): a first-nonzero pivot p cannot clear the unit below it
        rng = random.Random(20 + p)
        for N in (1, 2, 6):
            q = p**N
            for _ in range(10):
                check_charpoly(with_subcolumn(rng, [p % q, 1], q), q)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_least_valuation_not_first(self, p):
        # every entry of the subcolumn is a non-unit; p sits between p^2 and p^3
        rng = random.Random(30 + p)
        q = p**6
        for sub in ([p * p, p, p**3], [p**3, 2 * p * p, p, 0], [0, p**5, p**4 * (p - 1)]):
            for _ in range(5):
                check_charpoly(with_subcolumn(rng, sub, q), q)

    @pytest.mark.parametrize("p", [3, 5])
    def test_zero_subcolumns(self, p):
        rng = random.Random(40 + p)
        q = p**5
        for n in (3, 5, 7):
            rows = with_subcolumn(rng, [0] * (n - 1), q)
            check_charpoly(rows, q)
            for i in range(1, n):  # block upper triangular: a zero subdiagonal
                for j in range(i):
                    rows[i][j] = 0
            check_charpoly(rows, q)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_multiples_of_q_and_residue_field(self, p):
        rng = random.Random(50 + p)
        for N in (1, 3):
            q = p**N
            for n in range(1, 7):
                rows = [[rng.choice([0, 0, q, 2 * q, rng.randrange(q)]) for _ in range(n)]
                        for _ in range(n)]
                check_charpoly(rows, q)
            check_charpoly([[0] * 5 for _ in range(5)], q)

    def test_beyond_the_machine_word(self):
        rng = random.Random(60)
        q = 3**64
        assert q > 2**64
        for _ in range(10):
            rows = [[rng.choice([0, 3, rng.randrange(q)]) for _ in range(6)] for _ in range(6)]
            check_charpoly(rows, q)
        for p in (3, 5):
            q = p**1024
            rows = [[p ** rng.randint(0, 3) * rng.randrange(q) % q for _ in range(8)]
                    for _ in range(8)]
            check_charpoly(rows, q)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("n", [0, 1, 2, 24])
    def test_sizes(self, p, n):
        rng = random.Random(70 + p + n)
        q = p**8
        rows = [[p ** rng.randint(0, 2) * rng.randrange(q) % q for _ in range(n)]
                for _ in range(n)]
        check_charpoly(rows, q)
        assert len(kernels.charpoly_mod(rows, q)) == n + 1

    def test_random_valuations(self):
        rng = random.Random(80)
        for _ in range(150):
            p = rng.choice([3, 5, 7, 11])
            N = rng.choice([1, 2, 3, 5, 12, 40])
            q = p**N
            n = rng.randint(0, 7)
            rows = [[rng.choice([0, rng.randrange(q), p ** rng.randint(1, N) * rng.randrange(q) % q])
                     for _ in range(n)] for _ in range(n)]
            before = [list(r) for r in rows]
            assert kernels.charpoly_mod(rows, q) == berkowitz_mod(rows, q)
            assert rows == before

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_every_akashi_block_of_the_corpus(self, p):
        from iwalab.corpus import admissible_levels, crossed_corpus
        from iwalab.crossed import _cyclotomic_rows

        ranks = set()
        for seed in (113, 115):
            for X in crossed_corpus(seed, 8, p):
                q = X.context.modulus
                for lv in admissible_levels(X, 2, 2, rank_cap=162):
                    C = X._cocycle(lv)
                    for k in range(lv.m + 1):
                        block = [[v % q for v in row] for row in _cyclotomic_rows(C, p, k)]
                        check_hessenberg(block, q)
                        for i, row in enumerate(block):
                            row[i] = (row[i] - 1) % q
                        assert kernels.charpoly_mod(block, q) == berkowitz_mod(block, q)
                        ranks.add(len(block))
        assert max(ranks) >= 12


class TestPrecisions:
    """The word precision k comes first when k < N; otherwise N alone is tried."""

    @pytest.mark.parametrize("p, k30", [(3, 18), (5, 12), (7, 10)])
    def test_word_precision_then_full(self, p, k30):
        k = kernels.word_precision(p, 10**6)
        assert p**k < 1 << sys.int_info.bits_per_digit <= p ** (k + 1)
        if sys.int_info.bits_per_digit == 30:
            assert k == k30
        for N in (k + 1, 64, 1024):
            assert kernels.precisions(p, N) == (k, N)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_one_pass_at_or_below_word_precision(self, p):
        k = kernels.word_precision(p, 10**6)
        for N in (1, 2, k - 1, k):
            assert kernels.precisions(p, N) == (N,)

    def test_large_prime_has_no_word_pass(self):
        # p itself is not below the digit base: every residue spans several digits
        base = 1 << sys.int_info.bits_per_digit
        for p in (base + 3, 2**61 - 1):
            assert kernels.word_precision(p, 64) == 0
            assert kernels.precisions(p, 1) == (1,)
            assert kernels.precisions(p, 64) == (64,)


class TestSmithLadder:
    """`smith_ladder` keeps the first result with no divisor at its precision, else the one at N."""

    @pytest.fixture
    def passes(self, monkeypatch):
        seen = []
        smith = kernels.smith_exponents

        def recorded(rows, p, N):
            seen.append(N)
            return smith(rows, p, N)

        monkeypatch.setattr(kernels, "smith_exponents", recorded)
        return seen

    def test_ladder_table(self, passes):
        k = kernels.word_precision(3, 64)
        built = []

        def build(rows):
            def at(q):
                built.append(q)
                return [[v % q for v in r] for r in rows]
            return at

        # (rows, exponents, precisions built at, precisions eliminated at)
        cases = [
            ([[3, 0], [0, 1]], [0, 1], [k], [k]),  # decided at the word precision
            ([[3**20, 0], [0, 1]], [0, 20], [k, 64], [k, 64]),  # a divisor at p^k: once more at N
            ([[3**70, 0], [0, 1]], [0, -1], [k, 64], [k, 64]),  # a divisor at p^N: -1 at N
            ([], [], [k], []),  # nothing left to eliminate
        ]
        for rows, want, at, eliminated in cases:
            passes.clear()
            built.clear()
            assert kernels.smith_ladder(build(rows), 3, 64) == want, rows
            assert built == [3**P for P in at] and passes == eliminated, rows


RANK_162_ENTRIES = [[[1, 1], [0, 2]], [[3], [1, 0, 1]]]


def rank_162_group_ring_rows(u):
    """The presentation g*I - u*A over Z_3[G/U] at level (2, 2), d = 2, kappa = 4 (rank 162)."""
    from iwalab import Character, CrossedModule, Level, PadicContext

    ctx = PadicContext(3, 64)
    module = CrossedModule.from_int_data(ctx, 4, RANK_162_ENTRIES)
    return module._group_ring_rows(Character.from_int(ctx, u), Level(2, 2))


class CountingRow(list):
    writes = 0

    def __setitem__(self, i, v):
        CountingRow.writes += 1
        super().__setitem__(i, v)


def stored(rows, q, row=list):
    """`rows` mod q in the order `kernels._smith` stores them: each row last column first."""
    return [row(v % q for v in reversed(r)) for r in rows]


def test_row_updates_touch_only_the_pivot_support():
    # I - 4P: every pivot row has two nonzeros, so an update writes O(1) entries
    # per row; a full-width update would write n(n+1)/2 = 5050
    n, p, N = 100, 3, 18
    q = p**N
    rows = stored(cyclic(n, 4), q, CountingRow)
    CountingRow.writes = 0
    kernels._smith(rows, p, N)
    assert CountingRow.writes <= 4 * n


def test_group_ring_elimination_stays_sparse():
    # level (2, 2), d = 2, p = 3: rank D = 162.  With g's unit on the diagonal the
    # pivots walk the diagonal blocks and fill in only the last block column
    # (about 10k writes at the word precision); in the lexicographic layout the
    # first unit of a row lies in a u A block and the row fills in (62k writes)
    p, k = 3, kernels.word_precision(3, 64)
    q = p**k
    for u in (1, 4):
        new = rank_162_group_ring_rows(u)
        old = group_ring_rows_lex(4, RANK_162_ENTRIES, u, p, 2, 2)
        writes = []
        for rows in (new, old):
            m = stored(rows, q, CountingRow)
            CountingRow.writes = 0
            kernels._smith(m, p, k)
            writes.append(CountingRow.writes)
        bound = len(new) ** 2  # 26,244
        assert writes[0] <= bound < writes[1], writes


class PopRow(list):
    """A row that records, for each pop, how far from its end the popped entry was."""

    distances = []

    def pop(self, i=-1):
        PopRow.distances.append(len(self) - 1 - i % len(self))
        return super().pop(i)


def test_pivot_column_leaves_each_row_from_its_end(monkeypatch):
    # the first-unit pivots walk the unit diagonal of g*I - u*A, so the pivot
    # column is the first logical one: stored last column first, nearly every
    # pop takes the last stored entry, where in logical order it would take the first
    smith = kernels._smith

    def recorded(m, p, N):
        return smith([PopRow(r) for r in m], p, N)

    monkeypatch.setattr(kernels, "_smith", recorded)
    p, k = 3, kernels.word_precision(3, 64)
    rows = rank_162_group_ring_rows(4)
    PopRow.distances = []
    kernels.smith_exponents([[v % p**k for v in r] for r in rows], p, k)
    pops = PopRow.distances
    assert len(pops) >= 13_000 and pops.count(0) >= 0.99 * len(pops), (pops.count(0), len(pops))


def permutation_sign(perm):
    """(-1)^(number of inversions) of `perm`."""
    n = len(perm)
    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    return -1 if inversions & 1 else 1


def test_det_mod_sign_of_every_permutation_matrix():
    # 2 times a permutation matrix: every pivot is a unit, so the sign comes
    # from the Laplace signs alone, read at the logical column of each pivot
    p, N = 3, 5
    q = p**N
    count = 0
    for n in range(1, 7):
        for perm in permutations(range(n)):
            rows = [[2 * (j == perm[i]) for j in range(n)] for i in range(n)]
            assert kernels.det_mod(rows, p, N) == permutation_sign(perm) * 2**n % q, perm
            count += 1
    assert count == 873


def _packed_presentation():
    """A 6 x 6 integer-polynomial matrix evaluated at X = 2^b, b past its det's coefficient bound.

    This is the Kronecker packing of a presentation determinant: with degree-6
    entries and coefficients up to 3^100 the packed entries run to about 6,000 bits.
    """
    rng = random.Random(11)
    d, deg = 6, 6
    m = [[[rng.choice((-1, 1)) * rng.randint(1, 3**100) for _ in range(deg + 1)] for _ in range(d)]
         for _ in range(d)]
    bound = 1
    for row in m:
        bound *= sum(abs(c) for e in row for c in e)
    b = bound.bit_length() + 1
    return [[sum(c << (b * k) for k, c in enumerate(e)) for e in row] for row in m]


class TestBareiss:
    """Fraction-free elimination skips a row whose multiplier is 0 under an unchanged pivot."""

    CASES = {
        # unit lower triangular: every pivot is 1, and rows 2, 3 then 2 have zero multipliers
        "unit-pivots": [[1, 0, 0, 0], [5, 1, 0, 0], [0, 0, 1, 0], [0, 7, 0, 1]],
        # pivots 2, 2, 2: equal but not units, so the skipped update is still the identity
        "equal-non-unit-pivots": [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
        # pivots 2, 6: a zero multiplier under a changed pivot must still be scaled
        "changed-pivot": [[2, 1, 0], [0, 3, 1], [0, 0, 5]],
        "zero-leading-pivot": [[0, 1, 2], [3, 0, 1], [0, 4, 0]],
        "zero-column": [[1, 0, 2], [3, 0, 1], [4, 0, 5]],
        "repeated-row-zero-multipliers": [[1, 0, 0], [0, 2, 3], [0, 2, 3]],
        "singular-after-skips": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 4], [0, 0, 1, 2]],
        "packed-d6-presentation": _packed_presentation(),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_structured(self, name):
        rows = self.CASES[name]
        assert kernels.bareiss_det(rows) == det_int(rows)

    def test_sparse_random(self):
        rng = random.Random(10)
        singular = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            rows = [[rng.choice([0, 0, 0, 0, 1, -1, 2, 3, rng.randint(-9, 9)]) for _ in range(n)]
                    for _ in range(n)]
            if rng.random() < 0.3:
                rows[rng.randrange(n)] = list(rows[0])  # singular, or n = 1
            want = det_int(rows)
            singular += want == 0
            assert kernels.bareiss_det(rows) == want
        assert singular >= 50
