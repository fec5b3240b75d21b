"""Route agreement beyond the small corpora.

Crossed modules (three routes): p = 7, kappa = 1 + p^2 at m = n + 2 (group-ring
rank d*p^(n+m) <= 98), n = 3 at p = 3, d = 1 (ranks 27 and 81), p = 11, 13, 17
and 19 at group-ring rank <= p^2, swap modules at p = 13, 17 and 19 up to
level (1,1), levels (0,4) and (1,4) at p = 3 with not-finite ones among them,
and staged matrices with and without unit entries.  Gamma modules (two
routes and the X-basis reference): presentations with mu > 0, p = 11, 13, 17
and 19 at n <= 1 (rank <= 3p), and d = 3 at direct-route ranks 75 to 243,
with and without unit entries.  Every task also checks the integer-character
theorems: no crossed route is not finite at u != 1, and a gamma task is not
finite exactly when Phi_(p^k)(u(1+X)) divides det F for some k <= n
(`oracles.gamma_not_finite`).  All five routes give one verdict for a
character whatever precision it was built at, and refuse one built at
another prime.  Each test asserts the wall-time
bound RUNTIME_BOUND_S, ten times what the slowest of them takes on a 2-core
VM (about 1 s), so a slowdown of a route shows here before it shows in the
suite's total.
"""

import random
import time

import pytest

from iwalab import (
    Character,
    CrossedModule,
    EulerStatus,
    GammaModule,
    Level,
    MixedContextError,
    PadicContext,
)
from iwalab import _polyops as po
from iwalab.corpus import admissible_levels, random_crossed_module, random_gamma_module
from iwalab.padic import AT_LEAST_N, smith_form_raw

from oracles import direct_reference, gamma_not_finite, twisted_group_ring

RUNTIME_BOUND_S = 10.0
RANK = 98


def assert_routes_agree(X, lv, us):
    """The three crossed routes agree at level lv for each u, and are finite unless u = 1.

    Returns the statuses seen.
    """
    statuses = set()
    for u in us:
        rho = Character.from_int(X.context, u)
        r1 = X.euler_reduced(rho, lv)
        r2 = X.euler_akashi(rho, lv)
        r3 = X.group_ring_oracle(rho, lv)
        assert r1.status is r2.status is r3.status, (lv, u)
        assert r1.chi_exponent == r2.chi_exponent == r3.chi_exponent, (lv, u)
        assert u == 1 or r1.status is not EulerStatus.NOT_FINITE, (lv, u)
        if r1.exists:
            assert r1.h1_exponent == r2.h1_exponent == r3.h1_exponent == 0
        statuses.add(r1.status.value)
    return statuses


def assert_gamma_theorem(M, u, n, result):
    """A gamma route is not finite exactly when Phi_(p^k)(u(1+X)) divides det F, some k <= n."""
    bad = gamma_not_finite(M.exact_entries, u, M.context.p, n)
    assert (result.status is EulerStatus.NOT_FINITE) == bad, (M.exact_entries, u, n)


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
                    assert_gamma_theorem(M, u, n, rd)
                    if rd.exists:
                        assert rd.chi_exponent >= mu * p**n
                    seen.add((p, rd.status.value))
    assert {(3, "exists"), (5, "exists")} <= seen
    assert time.perf_counter() - t0 < RUNTIME_BOUND_S


def near_distinguished_gamma(rng, ctx, d):
    """F = diag(X + p a_i + ...) + p R: lambda >= d, and a_i = 0 puts X into det F."""
    p = ctx.p
    entries = [[[p * rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] for _ in range(d)]
               for _ in range(d)]
    for i in range(d):
        entries[i][i] = [p * rng.randint(-2, 2), 1] + [rng.randint(-9, 9) for _ in range(i)]
    return GammaModule.from_int_matrix(ctx, entries)


def near_identity_crossed(rng, ctx, d, kappa, r0=None):
    """A = I + p R + Y S is I mod (p, Y), so u^(p^n) B - I lies in the maximal
    ideal of the local staged quotient and every level has chi > 0 or is not
    finite; R(0) = r0 on the diagonal when given."""
    p = ctx.p
    entries = []
    for i in range(d):
        row = []
        for j in range(d):
            c = r0 if r0 is not None and i == j else rng.randint(-2, 2)
            row.append([(i == j) + p * c] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 2))])
        entries.append(row)
    return CrossedModule.from_int_data(ctx, kappa, entries)


@pytest.mark.parametrize("p", [11, 13, 17, 19])
def test_large_prime_gamma_direct_vs_analytic(p):
    # d <= 3 at n <= 1: direct-route ranks d * p^n <= 3p
    t0 = time.perf_counter()
    ctx = PadicContext(p, 64)
    rng = random.Random(111)
    seen = set()
    for k in range(9):
        M = near_distinguished_gamma(rng, ctx, 1 + k % 3)
        for u in (1, 1 + p, 1 + p * p):
            rho = Character.from_int(ctx, u)
            for n in range(2):
                rd = M.euler_direct(rho, n)
                ra = M.euler_analytic(rho, n)
                assert rd.status is ra.status, (M.exact_entries, u, n)
                assert rd.chi_exponent == ra.chi_exponent, (M.exact_entries, u, n)
                assert_gamma_theorem(M, u, n, rd)
                seen.add((M.d, n, rd.status.value))
    assert {(d, 1, "exists") for d in (1, 2, 3)} <= seen
    assert (2, 1, "not-finite-detected") in seen
    assert time.perf_counter() - t0 < RUNTIME_BOUND_S


@pytest.mark.parametrize("p", [11, 13, 17, 19])
def test_large_prime_triple_agreement(p):
    # group-ring ranks d * p^(n+m) <= p^2: (1,1) and (2,0) at d = 1, (0,1) and (1,0) at d = 2
    t0 = time.perf_counter()
    ctx = PadicContext(p, 64)
    rng = random.Random(112)
    seen = set()
    modules = [near_identity_crossed(rng, ctx, 1, 1 + p, r0=0)]
    modules += [near_identity_crossed(rng, ctx, 1 + k % 2, (1 + p, 1 + 2 * p)[k // 2])
                for k in range(4)]
    for X in modules:
        for lv in admissible_levels(X, 2, 2, rank_cap=p * p):
            statuses = assert_routes_agree(X, lv, (1, 1 + p, 1 + p * p))
            seen |= {(X.d, lv.n, lv.m, s) for s in statuses}
    assert {(d, n, m) for d, n, m, _ in seen} == {
        (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 2, 0), (2, 0, 0), (2, 0, 1), (2, 1, 0)}
    assert {(1, 1, 1, "exists"), (1, 1, 1, "not-finite-detected")} <= seen
    assert time.perf_counter() - t0 < RUNTIME_BOUND_S


def kernel_exponents(rows, p, N):
    """The scalar Smith kernel, word precision first, in `direct_reference`'s encoding (None for AtLeastN)."""
    exps = smith_form_raw(rows, PadicContext(p, N)).exponents
    return [None if e is AT_LEAST_N else e for e in exps]


def test_gamma_d3_at_large_ranks():
    # d = 3 at p^n = 25, 27, 49 and 81: direct-route ranks 75, 81, 147 and 243.
    # Dense random entries are mostly units, which split off over the group
    # ring before Smith; F = X I + p C has none, so its whole level matrix
    # goes to Smith.  The X-basis reference runs the scalar kernel on the
    # X-basis matrix (sympy's SNF stalls at these ranks).
    t0 = time.perf_counter()
    seen = set()
    for p, n in ((5, 2), (3, 3), (7, 2), (3, 4)):
        ctx = PadicContext(p, 64)
        q = ctx.modulus
        rng = random.Random(90 + 10 * p + n)
        for unit_free in (False, True, False, True):
            entries = [[[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)] for _ in range(3)]
            if unit_free:
                entries = [[[p * c for c in e] for e in row] for row in entries]
                for i in range(3):
                    entries[i][i][1] += 1
            M = GammaModule.from_int_matrix(ctx, entries)
            for u in (1, 1 + p):
                rho = Character.from_int(ctx, u)
                c = pow(u, -1, q)
                ring = [[twisted_group_ring(e, p**n, q, c) for e in row] for row in M.exact_entries]
                split = len(po.split_units(ring, p, q)) < 3
                assert not (split and unit_free), (p, n, entries, u)
                rd = M.euler_direct(rho, n)
                ra = M.euler_analytic(rho, n)
                assert rd.status is ra.status, (p, n, entries, u)
                assert rd.chi_exponent == ra.chi_exponent, (p, n, entries, u)
                assert_gamma_theorem(M, u, n, rd)
                want = (EulerStatus.INDETERMINATE, None)
                if rd.exists:
                    want = (rd.status, rd.chi_exponent)
                got = direct_reference(M, rho, n, kernel_exponents)
                assert got == want, (p, n, entries, u)
                seen.add((p, n, split, rd.status.value))
    for p, n in ((5, 2), (3, 3), (7, 2), (3, 4)):
        assert {(p, n, True, "exists"), (p, n, False, "exists")} <= seen, (p, n)
    assert time.perf_counter() - t0 < RUNTIME_BOUND_S


def unit_swap_crossed(rng, ctx, kappa):
    """A = P + p R + Y S with P the 2x2 swap, so the cocycle C is P^(p^n) = P mod (p, Y).

    u^(p^n) C - I is then P - I mod the maximal ideal: all four entries are
    units, and the split leaves one 1x1 entry, (-1)(-1) - 1 = 0 mod (p, Y).
    """
    p = ctx.p

    def entry(i, j):
        tail = [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))]
        return [(i != j) + p * rng.randint(-2, 2)] + tail

    entries = [[entry(i, j) for j in range(2)] for i in range(2)]
    return CrossedModule.from_int_data(ctx, kappa, entries)


def staged_split(X, rho, lv):
    """Size of what `split_units` leaves of u^(p^n) C - I, as euler_reduced builds it."""
    q = X.context.modulus
    upn = pow(rho.u_exact, X.context.p ** lv.n, q)
    M = [[[upn * v % q for v in e] for e in row] for row in X._cocycle(lv)]
    for i, row in enumerate(M):
        row[i][0] = (row[i][0] - 1) % q
    return len(po.split_units(M, X.context.p, q))


def test_crossed_with_and_without_unit_entries():
    # the swap modules split off one of two rows; the d = 1 action with
    # A(0) = 2 makes u^(p^n) C - 1 = 1 mod (p, Y), which splits off whole;
    # near-identity modules split off nothing
    t0 = time.perf_counter()
    seen = set()
    for p in (3, 5):
        ctx = PadicContext(p, 64)
        rng = random.Random(120 + p)
        modules = [("swap", unit_swap_crossed(rng, ctx, 1 + p)) for _ in range(2)]
        modules += [("near-identity", near_identity_crossed(rng, ctx, 2, 1 + p)) for _ in range(2)]
        unit = CrossedModule.from_int_data(ctx, 1 + p, [[[2, rng.randint(1, 4)]]])
        modules.append(("unit", unit))
        for kind, X in modules:
            for lv in admissible_levels(X, 2, 2, rank_cap=RANK):
                for u in (1, 1 + p, 1 + p * p):
                    rest = staged_split(X, Character.from_int(ctx, u), lv)
                    assert rest == {"swap": 1, "near-identity": 2, "unit": 0}[kind], (kind, lv, u)
                statuses = assert_routes_agree(X, lv, (1, 1 + p, 1 + p * p))
                seen |= {(p, kind, s) for s in statuses}
    for p in (3, 5):
        assert {(p, kind, "exists") for kind in ("swap", "near-identity", "unit")} <= seen
    assert time.perf_counter() - t0 < RUNTIME_BOUND_S


@pytest.mark.parametrize("p", [13, 17, 19])
def test_large_prime_swap_triple_agreement(p):
    # the swap modules are far from the identity mod (p, Y); A = swap exactly
    # is not finite at u = 1; group-ring ranks 2 * p^(n+m) <= 2p^2
    t0 = time.perf_counter()
    ctx = PadicContext(p, 64)
    rng = random.Random(130 + p)
    levels = [Level(0, 1), Level(1, 0), Level(1, 1)]
    seen = set()
    for _ in range(2):
        X = unit_swap_crossed(rng, ctx, 1 + p)
        for lv in levels:
            statuses = assert_routes_agree(X, X.check_level(lv), (1, 1 + p, 1 + 2 * p))
            seen |= {(lv, s) for s in statuses}
    swap = CrossedModule.from_int_data(ctx, 1 + p, [[[0], [1]], [[1], [0]]])
    for lv in levels:
        assert assert_routes_agree(swap, swap.check_level(lv), (1,)) == {"not-finite-detected"}
    assert seen == {(lv, "exists") for lv in levels}
    assert time.perf_counter() - t0 < RUNTIME_BOUND_S


def test_m_four_triple_agreement():
    # levels (0,4) and (1,4): group-ring ranks d * 3^(n+4) <= 486.  kappa = 82
    # = 1 + 3^4 is normal there.  u = 1 is not finite on [[1]], [[1+Y]] and
    # the swap; at u = 4 and 7, [[1]] and the swap reach chi = 81 and 162, so
    # the Akashi route needs N > chi
    t0 = time.perf_counter()
    ctx = PadicContext(3, 256)
    seen = set()
    for kappa in (1, 82):
        rng = random.Random(34)
        modules = [CrossedModule.from_int_data(ctx, kappa, e)
                   for e in ([[[1]]], [[[1, 1]]], [[[0], [1]], [[1], [0]]])]
        modules.append(unit_swap_crossed(rng, ctx, kappa))
        for X in modules:
            for lv in (Level(0, 4), Level(1, 4)):
                statuses = assert_routes_agree(X, X.check_level(lv), (1, 4, 7))
                seen |= {(X.d, lv.n, s) for s in statuses}
    assert seen == {(d, n, s) for d in (1, 2) for n in (0, 1)
                    for s in ("exists", "not-finite-detected")}
    assert time.perf_counter() - t0 < RUNTIME_BOUND_S


def test_a_character_twists_alike_whatever_precision_it_was_built_at():
    # u = 1 + 3^20 is 1 mod 3^8: a route that read u mod the precision of the
    # context the character was built in, rather than mod its own p^N, would
    # twist the module by 1
    u = 1 + 3**20
    M = GammaModule.from_int_matrix(PadicContext(3, 128), [[[2 * 3**70, 1]]])
    X = CrossedModule.from_int_data(PadicContext(3, 64), 4, [[[1, 1]]])
    cases = (
        (M, 0, (M.euler_direct, M.euler_analytic), 20),
        (X, Level(1, 1), (X.euler_reduced, X.euler_akashi, X.group_ring_oracle), 63),
    )
    for module, lv, routes, chi in cases:
        for ctx in (PadicContext(3, 8), module.context):
            rho = Character.from_int(ctx, u)
            got = [(r.status, r.chi_exponent) for r in (route(rho, lv) for route in routes)]
            assert got == [(EulerStatus.EXISTS, chi)] * len(routes), (module.context.N, ctx.N, got)


def test_a_character_of_another_prime_is_refused_by_every_route():
    # u = 4 is 1 mod 3 but not 1 mod 5; unchecked, every route read exists with chi = 0
    rho = Character.from_int(PadicContext(3, 8), 4)
    M = GammaModule.from_int_matrix(PadicContext(5, 16), [[[1, 1]]])
    X = CrossedModule.from_int_data(PadicContext(5, 16), 6, [[[1, 1]]])
    cases = (
        (0, (M.euler_direct, M.euler_analytic)),
        (Level(0, 0), (X.euler_reduced, X.euler_akashi, X.group_ring_oracle)),
    )
    for lv, routes in cases:
        for route in routes:
            with pytest.raises(MixedContextError, match="p = 3 cannot twist a module at p = 5"):
                route(rho, lv)
            assert route(Character.from_int(PadicContext(5, 8), 6), lv).exists
