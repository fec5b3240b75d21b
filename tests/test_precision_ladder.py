"""Every level route works at the word precision k first and at p^N only when needed.

`kernels.precisions(p, N)` is (k, N) for 0 < k < N, and each route computes
its whole pipeline mod p^k before it falls back.  The exponents of a matrix
mod p^k are min(e, k), so a result with no divisor at p^k is exact.  These
tests check the fallback on divisors planted beyond p^k, the single pass when
N <= k, and that routes on small exponents never leave the word precision.
"""

import pytest

from iwalab import Character, CrossedModule, GammaModule, Level, PadicContext, kernels
from iwalab import _polyops as po
from iwalab.corpus import admissible_levels, crossed_corpus, gamma_corpus
from iwalab.exactint import int_valuation
from iwalab.padic import smith_form_raw

from oracles import direct_reference

# (p, e) with e above the word precision k = 18, 12, 10 of p = 3, 5, 7
FALLBACK = [(3, 20), (5, 13), (7, 11)]
LEVELS = [Level(0, 0), Level(1, 0), Level(1, 1)]


@pytest.fixture
def precisions_used(monkeypatch):
    """Record the precision N of every smith_exponents and det_mod call."""
    seen = []
    for name in ("smith_exponents", "det_mod"):
        kernel = getattr(kernels, name)

        def recorded(rows, p, N, kernel=kernel):
            seen.append(N)
            return kernel(rows, p, N)

        monkeypatch.setattr(kernels, name, recorded)
    return seen


def gamma_exact_chi(M, n):
    """v_p of the exact determinant of the untwisted level matrix over Z (u = 1)."""
    pn = M.context.p ** n
    ring = [[po.to_group_ring(e, pn, None) for e in row] for row in M.exact_entries]
    return int_valuation(kernels.bareiss_det(po.block_circulant(ring)), M.context.p)


@pytest.mark.parametrize("p, e", FALLBACK)
def test_gamma_fallback_table(p, e, precisions_used):
    # det F = (2 p^e + X)(1 + X): at u = 1 the level-n exponent is e + n, one
    # divisor reaching p^e > p^k; at u = 1 + p it is 1 + n, decided at k
    k = kernels.word_precision(p, 64)
    assert k < e
    ctx = PadicContext(p, 64)
    M = GammaModule.from_int_matrix(ctx, [[[2 * p**e, 1], [0]], [[0], [1, 1]]])
    for u in (1, 1 + p):
        rho = Character.from_int(ctx, u)
        for n in range(3):
            want = (e if u == 1 else 1) + n
            precisions_used.clear()
            for route in (M.euler_direct, M.euler_analytic):
                r = route(rho, n)
                assert r.exists and r.chi_exponent == want, (route.__name__, u, n)
            assert set(precisions_used) == ({k, 64} if u == 1 else {k}), (u, n)
            if u == 1:
                assert gamma_exact_chi(M, n) == want
            if n <= 1:
                assert direct_reference(M, rho, n)[1] == want, (u, n)


@pytest.mark.parametrize("p, e", FALLBACK)
def test_crossed_fallback_table(p, e, precisions_used):
    # A = 1 + 2 p^e + Y, kappa = 1 + p: at u = 1 every level has a divisor at
    # least p^e > p^k.  The Akashi evaluation needs N above chi itself (70 and
    # 84 at level (1, 1)), so it is cross-checked at N = 128.
    k = kernels.word_precision(p, 64)
    ctx = PadicContext(p, 64)
    X = CrossedModule.from_int_data(ctx, 1 + p, [[[1 + 2 * p**e, 1]]])
    X128 = X.with_precision(128)
    for u in (1, 1 + p):
        rho = Character.from_int(ctx, u)
        for lv in LEVELS:
            exact = int_valuation(kernels.bareiss_det(X._group_ring_rows(rho, lv)), p)
            precisions_used.clear()
            got = [route(rho, lv) for route in (X.euler_reduced, X.group_ring_oracle)]
            assert all(r.exists and r.chi_exponent == exact for r in got), (u, lv)
            assert set(precisions_used) == ({k, 64} if u == 1 else {k}), (u, lv)
            ak = X128.euler_akashi(Character.from_int(X128.context, u), lv)
            assert ak.exists and ak.chi_exponent == exact, (u, lv)
            if u == 1:
                assert exact >= e


def test_one_pass_at_or_below_word_precision(monkeypatch):
    # N = 10 < k = 18 at p = 3: every kernel call is one elimination at N
    passes = []
    for name in ("_smith", "det_mod"):
        kernel = getattr(kernels, name)

        def recorded(rows, p, N, kernel=kernel):
            passes.append(N)
            return kernel(rows, p, N)

        monkeypatch.setattr(kernels, name, recorded)
    ctx = PadicContext(3, 10)
    M = GammaModule.from_int_matrix(ctx, [[[3, 1]]])
    X = CrossedModule.from_int_data(ctx, 4, [[[1, 3, 1]]])
    rho = Character.from_int(ctx, 4)
    calls = [
        lambda: M.euler_direct(rho, 1),
        lambda: X.euler_reduced(rho, Level(1, 1)),
        lambda: X.group_ring_oracle(rho, Level(1, 1)),
    ]
    for call in calls:
        passes.clear()
        assert call().exists
        assert passes == [10], passes


def test_small_exponents_never_leave_the_word_precision(precisions_used):
    # corpus modules whose exponents stay below k: if a route reduced at p^N
    # again, the speedup of the word precision would be gone without a failure
    for p, seed in ((3, 1), (5, 2)):
        k = kernels.word_precision(p, 64)
        gamma = gamma_corpus(seed, 3, p)
        crossed = crossed_corpus(seed, 2, p)
        precisions_used.clear()  # the unit check of A at construction works mod p
        results = []
        for M in gamma:
            for u in (1 + p, 1 + p * p):
                rho = Character.from_int(M.context, u)
                for n in range(3):
                    results.append((M.euler_direct(rho, n), M.euler_analytic(rho, n)))
        for X in crossed:
            for lv in admissible_levels(X, 1, 1):
                rho = Character.from_int(X.context, 1 + p)
                results.append((X.euler_reduced(rho, lv), X.group_ring_oracle(rho, lv)))
        assert all(a.exists and a.chi_exponent == b.chi_exponent < k for a, b in results)
        assert len(precisions_used) >= 5 and set(precisions_used) == {k}, (p, precisions_used)


def test_last_precision_eliminates_once(monkeypatch):
    # a divisor past p^k = 3^18 sends each route from k to N = 64: the pass at
    # N is one elimination, not the word precision tried again inside the kernel
    passes = []
    smith = kernels._smith

    def recorded(m, p, N):
        passes.append(N)
        return smith(m, p, N)

    monkeypatch.setattr(kernels, "_smith", recorded)
    ctx = PadicContext(3, 64)
    rho = Character.trivial(ctx)
    M = GammaModule.from_int_matrix(ctx, [[[2 * 3**20, 1], [0]], [[0], [1, 1]]])
    X = CrossedModule.from_int_data(ctx, 4, [[[1 + 2 * 3**20, 1]]])
    for call in (lambda: M.euler_direct(rho, 1), lambda: X.group_ring_oracle(rho, Level(1, 1))):
        passes.clear()
        assert call().exists
        assert passes == [18, 64], passes
    # smith_form_raw keeps its own word-first pass for rows handed to it mod p^N
    for rows, want in (([[2 * 3**20, 0], [0, 1]], [18, 64]), ([[3, 0], [0, 1]], [18])):
        passes.clear()
        smith_form_raw(rows, ctx)
        assert passes == want, passes
