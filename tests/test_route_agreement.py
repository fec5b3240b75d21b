"""Route agreement beyond the small corpora.

Crossed modules (three routes): p = 7, kappa = 1 + p^2 at m = n + 2 (group-ring
rank d*p^(n+m) <= 98), and n = 3 at p = 3, d = 1 (ranks 27 and 81).  Gamma
modules (two routes): presentations with mu > 0.  Each test asserts the
wall-time bound RUNTIME_BOUND_S, ten times what the slowest of them takes on
a 2-core VM (about 1 s), so a slowdown of a route shows here before it shows
in the suite's total.
"""

import random
import time

from iwalab import Character, CrossedModule, GammaModule, Level, PadicContext
from iwalab.corpus import admissible_levels, random_crossed_module, random_gamma_module

RUNTIME_BOUND_S = 10.0
RANK = 98


def assert_routes_agree(X, lv, us):
    """The three crossed routes agree at level lv for each u; returns the statuses seen."""
    statuses = set()
    for u in us:
        rho = Character.from_int(X.context, u)
        r1 = X.euler_reduced(rho, lv)
        r2 = X.euler_akashi(rho, lv)
        r3 = X.group_ring_oracle(rho, lv)
        assert r1.status is r2.status is r3.status, (lv, u)
        assert r1.chi_exponent == r2.chi_exponent == r3.chi_exponent, (lv, u)
        if r1.exists:
            assert r1.h1_exponent == r2.h1_exponent == r3.h1_exponent == 0
        statuses.add(r1.status.value)
    return statuses


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


def test_n_three_triple_agreement():
    # p^n = 27 or 125 cocycle factors; group-ring ranks 27 and 81 at d = 1, p = 3,
    # 54 at d = 2, and 125 at (3, 0), p = 5
    t0 = time.perf_counter()
    seen = set()
    for seed, p, d, levels in (
        (73, 3, 1, [(3, 0), (3, 1)]),
        (74, 3, 2, [(3, 0)]),
        (75, 5, 1, [(3, 0)]),
    ):
        ctx = PadicContext(p, 64)
        rng = random.Random(seed)
        modules = (random_crossed_module(rng, ctx, d_max=d) for _ in range(40))
        for X in [X for X in modules if X.d == d][:4]:
            for lv in levels:
                statuses = assert_routes_agree(X, Level(*lv), (1, 1 + p, 1 + p * p))
                seen |= {(p, d, lv, s) for s in statuses}
    assert {(3, 1, (3, 1), "exists"), (3, 1, (3, 1), "not-finite-detected"),
            (3, 2, (3, 0), "exists"), (5, 1, (3, 0), "exists")} <= seen
    assert time.perf_counter() - t0 < RUNTIME_BOUND_S


def test_mu_positive_gamma_direct_vs_analytic():
    # one row of F scaled by p puts det F in p Lambda: mu >= 1, and the
    # level-n characteristic carries mu p^n on top of the lambda part
    t0 = time.perf_counter()
    seen = set()
    for p in (3, 5):
        ctx = PadicContext(p, 64)
        rng = random.Random(74 + p)
        for _ in range(6):
            base = random_gamma_module(rng, ctx)
            entries = [list(row) for row in base.exact_entries]
            entries[0] = [[p * c for c in e] for e in entries[0]]
            M = GammaModule.from_int_matrix(ctx, entries)
            lam, mu = M.char_invariants()
            assert mu >= 1
            for u in (1, 1 + p, 1 + p * p):
                rho = Character.from_int(ctx, u)
                for n in range(3):
                    rd = M.euler_direct(rho, n)
                    ra = M.euler_analytic(rho, n)
                    assert rd.status is ra.status, (p, entries, u, n)
                    assert rd.chi_exponent == ra.chi_exponent, (p, entries, u, n)
                    if rd.exists:
                        assert rd.chi_exponent >= mu * p**n
                    seen.add((p, rd.status.value))
    assert {(3, "exists"), (5, "exists")} <= seen
    assert time.perf_counter() - t0 < RUNTIME_BOUND_S
