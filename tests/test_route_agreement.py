"""Triple-route agreement beyond the small corpus: p = 7, and kappa = 1 + p^2 at m = n + 2.

Every case stays at group-ring rank d*p^(n+m) <= 98.  Each test asserts the
wall-time bound RUNTIME_BOUND_S, ten times what the slower of the two takes
on a 2-core VM (about 1 s), so a slowdown of a route shows here before it
shows in the suite's total.
"""

import random
import time

from iwalab import Character, CrossedModule, PadicContext
from iwalab.corpus import admissible_levels, random_crossed_module

RUNTIME_BOUND_S = 10.0
RANK = 98


def assert_routes_agree(X, lv, us):
    for u in us:
        rho = Character.from_int(X.context, u)
        r1 = X.euler_reduced(rho, lv)
        r2 = X.euler_akashi(rho, lv)
        r3 = X.group_ring_oracle(rho, lv)
        assert r1.status is r2.status is r3.status, (lv, u)
        assert r1.chi_exponent == r2.chi_exponent == r3.chi_exponent, (lv, u)
        if r1.exists:
            assert r1.h1_exponent == r2.h1_exponent == r3.h1_exponent == 0


def test_p7_triple_agreement():
    t0 = time.perf_counter()
    p = 7
    ctx = PadicContext(p, 64)
    rng = random.Random(71)
    seen = set()
    for _ in range(5):
        X = random_crossed_module(rng, ctx)
        for lv in admissible_levels(X, 2, 2, rank_cap=RANK):
            assert_routes_agree(X, lv, (1, 1 + p, 1 + p * p))
            seen.add((X.d, lv.n, lv.m))
    assert {(1, 1, 1), (2, 1, 1), (2, 2, 0)} <= seen
    assert time.perf_counter() - t0 < RUNTIME_BOUND_S


def test_kappa_one_plus_p_squared_at_m_n_plus_two():
    # v_p(kappa - 1) = 2 makes the levels with m = n + 2 normal
    t0 = time.perf_counter()
    seen = set()
    for p in (3, 5):
        ctx = PadicContext(p, 64)
        rng = random.Random(72 + p)
        for _ in range(4):
            base = random_crossed_module(rng, ctx, d_max=3 if p == 5 else 2)
            X = CrossedModule.from_int_data(ctx, 1 + p * p, base.exact_entries)
            for lv in admissible_levels(X, 1, 3, rank_cap=RANK):
                if lv.m == lv.n + 2:
                    assert_routes_agree(X, lv, (1, 1 + p, 1 + p * p))
                    seen.add((p, X.d, lv.n, lv.m))
    assert {(3, 1, 1, 3), (3, 2, 0, 2), (5, 3, 0, 2)} <= seen
    assert time.perf_counter() - t0 < RUNTIME_BOUND_S
