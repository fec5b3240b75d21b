"""Acceptance suite: one criterion per test, one pass/fail line per criterion.

All arithmetic comparisons are exact (tolerance zero): statuses must match as
enum values and exponents as integers.  Criteria 1 and 2 also assert runtime
bounds.  Lines are emitted on the real stderr so they stay visible under
pytest's capture.
"""

import json
import random
import sys
import time

import pytest

from iwalab import (
    Character,
    Level,
    PadicContext,
    PowerSeries,
    find_twist,
    find_twist_crossed,
    weierstrass_prepare,
)
from iwalab import det_mult_mod_omega
from iwalab.corpus import admissible_levels, crossed_corpus, gamma_corpus
from iwalab.padic import AT_LEAST_N, smith_form_raw
from iwalab.problems import parse_problem
from iwalab.workbench import digest_text, run

from oracles import cofactor_det_mod, int_valuation, resultant_int


def announce(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else "")
    print(line, file=sys.__stderr__)
    assert ok, line


def characters_for(ctx):
    p = ctx.p
    return [
        Character.from_int(ctx, u)
        for u in (1, 1 + p, 1 + 2 * p, 1 + p * p, 1 + p + p * p)
    ]


@pytest.fixture(scope="module")
def gammas():
    return gamma_corpus(1003, 100, 3) + gamma_corpus(1005, 100, 5)


@pytest.fixture(scope="module")
def crosseds():
    return crossed_corpus(2003, 50, 3) + crossed_corpus(2005, 50, 5)


def test_criterion_1_twisting_lemma_suite(gammas):
    t0 = time.time()
    runs = 0
    for M in gammas:
        for rho in characters_for(M.context):
            for n in range(3):
                rd = M.euler_direct(rho, n)
                ra = M.euler_analytic(rho, n)
                assert rd.status is ra.status, (M.exact_entries, rho.u_exact, n)
                assert rd.chi_exponent == ra.chi_exponent
                runs += 1
    dt = time.time() - t0
    assert dt < 60, f"criterion 1 took {dt:.1f}s"
    announce(
        "criterion-1 twisting-lemma suite",
        True,
        f"{len(gammas)} modules, {runs} route pairs agree exactly, {dt:.1f}s",
    )


def _decided_triple(X, rebuilds, u, lv, cap=512):
    """All three routes at the first precision where none is indeterminate.

    A single-determinant route saturates at valuation N-1, so a certified
    exponent >= N forces the documented escalation (doubling N) before the
    exact-agreement comparison is meaningful.
    """
    from iwalab.results import EulerStatus

    cur = X
    while True:
        rho = Character.from_int(cur.context, u)
        rs = (
            cur.euler_reduced(rho, lv),
            cur.euler_akashi(rho, lv),
            cur.group_ring_oracle(rho, lv),
        )
        if all(r.status is not EulerStatus.INDETERMINATE for r in rs) or (
            cur.context.N * 2 > cap
        ):
            return rs, cur.context.N
        n2 = cur.context.N * 2
        if n2 not in rebuilds:
            rebuilds[n2] = X.with_precision(n2)
        cur = rebuilds[n2]


def test_criterion_2_triple_agreement(crosseds):
    t0 = time.time()
    triples = 0
    escalated = 0
    max_rank = 0
    for X in crosseds:
        p = X.context.p
        levels = admissible_levels(X, 2, 2, rank_cap=162)
        rebuilds = {}
        for lv in levels:
            max_rank = max(max_rank, X.d * p ** (lv.n + lv.m))
            for u in (1, 1 + p, 1 + p * p):
                (r1, r2, r3), N = _decided_triple(X, rebuilds, u, lv)
                if N != X.context.N:
                    escalated += 1
                ctxinfo = (X.exact_entries, X.kappa_exact, (lv.n, lv.m), u, N)
                assert r1.status is r2.status is r3.status, ctxinfo
                assert r1.chi_exponent == r2.chi_exponent == r3.chi_exponent, ctxinfo
                if r1.exists:
                    assert r1.h1_exponent == 0
                    assert r2.h1_exponent == 0
                    assert r3.h1_exponent == 0
                triples += 1
    dt = time.time() - t0
    assert dt < 300, f"criterion 2 took {dt:.1f}s"
    announce(
        "criterion-2 triple agreement",
        True,
        f"{len(crosseds)} modules, {triples} triples, max rank {max_rank}, "
        f"{escalated} escalations, {dt:.1f}s",
    )


def test_criterion_3_golden_example():
    with open("problems/golden_trivial_crossed.json", "r", encoding="utf-8") as fh:
        text = fh.read()
    problem = parse_problem(text)
    report, code = run(problem, "euler", input_digest=digest_text(text))
    report.pop("timing")
    with open("tests/golden/golden_trivial_crossed.report.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert code == 0
    assert json.dumps(report, sort_keys=True) == json.dumps(golden, sort_keys=True)

    X = problem.module
    rho = Character.from_int(X.context, 4)
    triv = Character.trivial(X.context)
    lvl = Level(1, 1)
    exps = (
        X.euler_reduced(rho, lvl).chi_exponent,
        X.euler_akashi(rho, lvl).chi_exponent,
        X.group_ring_oracle(rho, lvl).chi_exponent,
    )
    assert exps == (6, 6, 6)
    statuses = {
        X.euler_reduced(triv, lvl).status.value,
        X.euler_akashi(triv, lvl).status.value,
        X.group_ring_oracle(triv, lvl).status.value,
    }
    assert statuses == {"not-finite-detected"}
    announce("criterion-3 golden example", True, "chi = 3^6 on all routes; report byte-identical")


def test_criterion_4_main_theorem_search(gammas, crosseds):
    t0 = time.time()
    for M in gammas:
        rho, rep = find_twist(M, n_max=2, budget=25)
        M2 = M.with_precision(M.context.N * 2)
        rho2 = Character.from_int(M2.context, rep.accepted_u)
        for oc in rep.candidates[-1].outcomes:
            r = M2.euler_direct(rho2, oc.level)
            assert r.exists and r.chi_exponent == oc.chi_exponent
    for X in crosseds:
        levels = admissible_levels(X, 2, 2, rank_cap=162)
        rho, rep = find_twist_crossed(X, levels, budget=25)
        X2 = X.with_precision(X.context.N * 2)
        rho2 = Character.from_int(X2.context, rep.accepted_u)
        for oc in rep.candidates[-1].outcomes:
            r = X2.euler_reduced(rho2, Level(*oc.level))
            assert r.exists and r.chi_exponent == oc.chi_exponent
    dt = time.time() - t0
    announce(
        "criterion-4 main-theorem search",
        True,
        f"{len(gammas)}+{len(crosseds)} searches terminated; certificates hold at 2N, {dt:.1f}s",
    )


def test_criterion_5_nonabelian_sanity():
    ctx = PadicContext(3, 64)
    lvl = Level(1, 2)
    rng = random.Random(1212)
    from iwalab.corpus import random_crossed_module

    checked = 0
    attempts = 0
    while checked < 20 and attempts < 400:
        attempts += 1
        X = random_crossed_module(rng, ctx)
        if X.kappa_exact != 4:
            continue
        for u in (1, 4, 10):
            rho = Character.from_int(ctx, u)
            r1 = X.euler_reduced(rho, lvl)
            r3 = X.group_ring_oracle(rho, lvl)
            assert r1.status is r3.status, (X.exact_entries, u)
            assert r1.chi_exponent == r3.chi_exponent
        checked += 1
    assert checked >= 20
    announce(
        "criterion-5 nonabelian sanity",
        True,
        f"order-27 level (1,2): group ring agrees with reduced route on {checked} modules",
    )


def test_criterion_6_kernel_and_series_units():
    rng = random.Random(66)
    # Weierstrass reconstruction on 1000 random series
    recon = 0
    for _ in range(1000):
        p = rng.choice([3, 5])
        ctx = PadicContext(p, 16)
        ints = [rng.randint(-50, 50) for _ in range(rng.randint(1, 10))]
        f = PowerSeries.from_ints(ctx, "X", ints)
        if f.is_zero_to_precision():
            continue
        w = weierstrass_prepare(f)
        prod = w.distinguished * w.unit
        pm = p ** w.mu
        assert [(c * pm) % ctx.modulus for c in prod.coeffs] == list(f.coeffs)
        recon += 1

    # smith exponent sum vs independent cofactor determinant valuation
    dets = 0
    for _ in range(200):
        p = rng.choice([3, 5])
        ctx = PadicContext(p, 10)
        n = rng.randint(1, 4)
        rows = [[rng.randrange(ctx.modulus) for _ in range(n)] for _ in range(n)]
        d = smith_form_raw(rows, ctx)
        det = cofactor_det_mod(rows, ctx.modulus)
        if d.has_at_least_n:
            assert det % ctx.modulus == 0 or ctx.int_valuation(det) is AT_LEAST_N
        else:
            assert d.finite_sum == ctx.int_valuation(det)
        dets += 1

    # det_mult_mod_omega vs the independent integer-resultant oracle
    from iwalab._polyops import omega_coeffs

    res = 0
    for _ in range(200):
        p = rng.choice([3, 5])
        ctx = PadicContext(p, 12)
        deg = rng.randint(0, 6)
        ints = [rng.randint(-9, 9) for _ in range(deg + 1)]
        if all(v == 0 for v in ints):
            continue
        n = rng.randint(0, 2)
        got = det_mult_mod_omega(PowerSeries.from_ints(ctx, "X", ints), n)
        want = resultant_int(omega_coeffs(p, n), ints)
        v = int_valuation(want, p)
        if want == 0 or v >= ctx.N:
            assert got.valuation() is AT_LEAST_N
        else:
            assert got.valuation() == v
            assert got.residue in (want % ctx.modulus, (-want) % ctx.modulus)
        res += 1
    announce(
        "criterion-6 kernel/series units",
        True,
        f"{recon} reconstructions, {dets} smith-vs-det, {res} resultant identities",
    )


def test_criterion_7_precision_stability(gammas, crosseds):
    t0 = time.time()
    stable = 0
    for M in gammas:
        m32 = M.with_precision(32)
        m128 = M.with_precision(128)
        for u in (1, 1 + M.context.p):
            for n in range(3):
                rhos = [Character.from_int(m.context, u) for m in (m32, M, m128)]
                for route in ("euler_direct", "euler_analytic"):
                    r32 = getattr(m32, route)(rhos[0], n)
                    if not r32.exists:
                        continue
                    r64 = getattr(M, route)(rhos[1], n)
                    r128 = getattr(m128, route)(rhos[2], n)
                    assert r64.exists and r128.exists, (route, M.exact_entries, u, n)
                    assert r32.chi_exponent == r64.chi_exponent == r128.chi_exponent
                    stable += 1
    for X in crosseds:
        p = X.context.p
        x32 = X.with_precision(32)
        x128 = X.with_precision(128)
        levels = admissible_levels(X, 1, 2, rank_cap=162)
        for u in (1, 1 + p):
            for lv in levels:
                rho32 = Character.from_int(x32.context, u)
                rho64 = Character.from_int(X.context, u)
                rho128 = Character.from_int(x128.context, u)
                for route in ("euler_reduced", "euler_akashi", "group_ring_oracle"):
                    r32 = getattr(x32, route)(rho32, lv)
                    if not r32.exists:
                        continue
                    r64 = getattr(X, route)(rho64, lv)
                    r128 = getattr(x128, route)(rho128, lv)
                    assert r64.exists and r128.exists, (route, X.exact_entries, u)
                    assert r32.chi_exponent == r64.chi_exponent == r128.chi_exponent
                    stable += 1
    dt = time.time() - t0
    announce(
        "criterion-7 precision stability",
        True,
        f"{stable} exponents identical at N = 32, 64, 128, {dt:.1f}s",
    )
