"""The kernels must agree with external integer oracles."""

import random

import pytest

from iwalab import kernels

from oracles import charpoly_desc, det_int, int_valuation, snf_exponents


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
