"""The gamma level quantities at the size of lambda, from exact cyclotomic norms.

`GammaModule.euler_analytic` sums v_p of the norms N(P_u(zeta_(p^k))),
k <= n, of the twisted characteristic polynomial P_u, most of them in closed
form (`exactint.twisted_chi`); the value is None, not finite, when one of
them is 0, and `euler_direct` reads the same value when Smith meets p^N.
`exactint.norm_valuation` is checked against v_p of sympy's resultant with
Phi_(p^k); the route against references whose size is the level p^n (the
circulant determinant `det_mult_mod_omega`, the Sylvester determinant
`sylvester_resultant` and sympy's integer resultant), against the former
lambda x lambda determinant mod p^(N - mu) (`oracles.analytic_lambda_reference`)
wherever that decides, and against `euler_direct` at N = 512.
"""

import json
import random
import time
import tracemalloc

import pytest

from iwalab import (
    AT_LEAST_N,
    Character,
    EulerResult,
    EulerStatus,
    GammaModule,
    PadicContext,
    PrecisionExhaustedError,
    ZeroDeterminantError,
    det_mult_mod_omega,
    lambda_mu,
    twist_series,
    weierstrass_prepare,
)
from iwalab import _polyops as po
from iwalab.cli import main
from iwalab.corpus import gamma_corpus
from iwalab.crossed import LENGTH_CAP
from iwalab.exactint import (
    cyclotomic_valuation,
    gamma_h0_is_infinite,
    lambda_mu as lambda_mu_int,
    norm_valuation,
    sylvester_resultant,
    twisted_chi,
)

from oracles import (
    analytic_lambda_reference,
    int_valuation,
    resultant_int,
    shares_factor_int,
    sylvester_det_int,
    twisted_char_poly_int,
)

N = 24


def level_poly(p, n):
    """T^(p^n) - 1, ascending."""
    return [-1] + [0] * (p**n - 1) + [1]


def cyclotomic(p, k):
    """Phi_(p^k)(T), ascending: T - 1 at k = 0, else Phi_p(T^(p^(k-1)))."""
    if k == 0:
        return [-1, 1]
    m = p ** (k - 1)
    out = [0] * ((p - 1) * m + 1)
    out[::m] = [1] * p
    return out


def compose_twist(f, u):
    """f(u(1+X)) as an exact integer polynomial in X."""
    return po.substitute_linear(f, u, u, None)


def characters(p):
    return (1, 1 + p, 1 + p * p)


def exact_exponent(M, u, n):
    """v_p Res(T^(p^n) - 1, P_u) over Z: chi at level n, or None when not finite.

    The roots of P_u are u(1 + x) for the roots x of det F, so the resultant
    is prod_zeta u^D det F(u^-1 zeta - 1), of valuation mu p^n plus that of
    the analytic determinant.  For a linear P_u = aT + e the product over the
    p^n-th roots of unity is e^(p^n) - (-a)^(p^n); otherwise sympy's resultant.
    """
    p = M.context.p
    cs = twisted_char_poly_int(M.det_int, u)
    if len(cs) == 2:
        e, a = cs
        return int_valuation(e ** p**n - (-a) ** p**n, p)
    return int_valuation(resultant_int(level_poly(p, n), cs), p)


def circulant_exponent(M, rho, n):
    """The analytic route at the size of the level: a p^n x p^n circulant determinant."""
    w = weierstrass_prepare(M.det)
    v = det_mult_mod_omega(twist_series(w.distinguished, rho, "inverse"), n).valuation()
    return None if v is AT_LEAST_N else w.mu * M.context.p**n + v


def check_analytic(M, u, n, circulant=True):
    """euler_analytic against the exact resultant, and against the references at the
    precision where they decide: a valuation of the analytic part below N - mu."""
    ctx = M.context
    p = ctx.p
    rho = Character.from_int(ctx, u)
    got = M.euler_analytic(rho, n)
    want = exact_exponent(M, u, n)
    _, mu = M.char_invariants()
    if want is None:
        assert got.status is EulerStatus.NOT_FINITE, (M.det_int, u, n)
    else:
        assert got.exists and got.chi_exponent == want, (M.det_int, u, n, got, want)
    decided = want is not None and want - mu * p**n < ctx.N - mu
    ref = want if decided else None
    assert analytic_lambda_reference(M, rho, n) == ref, (M.det_int, u, n)
    if circulant:
        assert circulant_exponent(M, rho, n) == ref, (M.det_int, u, n)
    return got


def planted(p):
    """Presentations with the structure a random corpus misses at large p.

    lambda = 0 with and without mu; lambda = p + 1, above p^0 and p^1 (and
    at p = 3 a lambda of 10, above p^2); mu > 0 with lambda > 0; a root
    p^3 or p^(N-2) away from a twisted root of unity, so that the exponent
    3 + n or N - 2 + n crosses N; and Phi_p(u(1+X)), not finite at u from
    level 1 on.
    """
    mats = [
        [[[1, p]]],
        [[[p * p, p**3, p * p]]],
        [[[p] + [0] * p + [1]]],
        [[[-p * p, p]]],
        [[[-p, 1], [0]], [[0], [p, p]]],
        [[[1, 1], [p]], [[-p, 2], [3, 0, 1]]],
    ]
    if p == 3:
        mats.append([[[3] + [0] * 9 + [1]]])
    for u in characters(p)[1:]:
        mats += [[[[u - 1 - p**e, u]]] for e in (3, N - 2)]
        mats.append([[compose_twist(cyclotomic(p, 1), u)]])
    return [GammaModule.from_int_matrix(PadicContext(p, N), m) for m in mats]


class TestAnalyticAtSizeLambda:
    @pytest.mark.parametrize("p,n_max,count", [(3, 3, 8), (5, 2, 6)])
    def test_corpus_matches_circulant_and_resultant(self, p, n_max, count):
        for M in gamma_corpus(1, count, p, N=N):
            for u in characters(p):
                for n in range(n_max + 1):
                    check_analytic(M, u, n)

    def test_corpus_level_three_at_p5(self):
        for M in gamma_corpus(2, 4, 5, N=N):
            for u in characters(5):
                check_analytic(M, u, 3, circulant=False)

    @pytest.mark.parametrize("p", [3, 5, 11, 13])
    def test_planted_structure(self, p):
        """Levels to 3; at p >= 11 level 3 (rank 1331, 2197) only for linear det F,
        where the exact resultant has a closed form.  A valuation past N - mu,
        where the references stop deciding, is still exact."""
        seen = set()
        for M in planted(p):
            lam, mu = M.char_invariants()
            n_max = 3 if p < 11 or len(M.det_int) == 2 else 2
            for u in characters(p):
                for n in range(n_max + 1):
                    got = check_analytic(M, u, n, circulant=p**n <= 27)
                    beyond = got.exists and got.chi_exponent - mu * p**n >= N - mu
                    seen.add((lam == 0, lam >= p**n, mu > 0, got.status, beyond))
        assert (True, False, False, EulerStatus.EXISTS, False) in seen
        assert (False, True, False, EulerStatus.EXISTS, False) in seen
        assert any(mu and status is EulerStatus.EXISTS for _, _, mu, status, _ in seen)
        assert any(s is EulerStatus.NOT_FINITE for *_, s, _ in seen)
        assert any(beyond for *_, beyond in seen)
        assert not any(s is EulerStatus.INDETERMINATE for *_, s, _ in seen)

    def test_lambda_zero_is_mu_times_level(self):
        M = GammaModule.from_int_matrix(PadicContext(5, N), [[[25, 125, 25]]])
        assert M.char_invariants() == (0, 2)
        for n in range(4):
            assert M.euler_analytic(Character.from_int(M.context, 6), n).chi_exponent == 2 * 5**n

    def test_level_below_lambda(self):
        # X^4 + 3: lambda = 4 > p^1; Res(h^3 - 1, (h - 1)^4 + 3) has valuation 3
        M = GammaModule.from_int_matrix(PadicContext(3, N), [[[3, 0, 0, 0, 1]]])
        assert M.euler_analytic(Character.from_int(M.context, 1), 1).chi_exponent == 3

    def test_lambda_200_level_5_in_under_a_second(self):
        # X^200 + 3: no closed form up to n = 5, since phi(3^5) = 162 <= 200, so
        # six norms are taken, the last on 162 coefficients
        M = GammaModule.from_int_matrix(PadicContext(3, 64), [[[3] + [0] * 199 + [1]]])
        assert M.char_invariants() == (200, 0)
        for u in (1, 4):
            t0 = time.perf_counter()
            got = M.euler_analytic(Character.from_int(M.context, u), 5)
            assert time.perf_counter() - t0 < 1.0
            assert got.exists
            if u == 1:
                # P_1 = (h - 1)^200 + 3: v(zeta - 1)*200 > 1 whenever phi(3^k) < 200, so t_k = phi(3^k)
                assert got.chi_exponent == 3**5


class TestExactRouteAgainstDirect:
    """The exact route equals `euler_direct` at N = 512, where the direct route decides everything."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 23])
    def test_corpus_and_planted(self, p):
        n_max = {3: 3, 5: 2, 7: 2}.get(p, 1)
        modules = [M.with_precision(512) for M in planted(p)]
        if p <= 7:
            modules += gamma_corpus(p, 8, p, N=512)
        seen = set()
        for M in modules:
            lam, mu = M.char_invariants()
            for u in characters(p):
                rho = Character.from_int(M.context, u)
                for n in range(n_max + 1):
                    if M.d * p**n > 100:
                        continue
                    rd = M.euler_direct(rho, n)
                    ra = M.euler_analytic(rho, n)
                    assert rd.status is not EulerStatus.INDETERMINATE, (M.det_int, u, n)
                    assert (ra.status, ra.chi_exponent) == (rd.status, rd.chi_exponent), (
                        M.det_int, u, n)
                    # a norm at some k >= 1, not only the closed form
                    seen.add((mu > 0, n >= 1 and lam >= p - 1, rd.status))
        assert any(mu and s is EulerStatus.EXISTS for mu, _, s in seen)
        assert (False, True, EulerStatus.EXISTS) in seen
        assert (False, True, EulerStatus.NOT_FINITE) in seen

    def test_phi_529_at_level_two_in_under_a_second(self):
        # det F = Phi_529(24(1 + X)) at the character 24 + 23^4: lambda = phi(23^2) = 506,
        # within the parse-time caps, where a product of conjugates down the tower takes seconds
        p = 23
        M = GammaModule.from_int_matrix(PadicContext(p, 64), [[compose_twist(cyclotomic(p, 2), 24)]])
        assert M.char_invariants()[0] == 506
        rho = Character.from_int(M.context, 24 + p**4)
        t0 = time.perf_counter()
        ra = M.euler_analytic(rho, 2)
        assert time.perf_counter() - t0 < 1.0
        rd = M.euler_direct(rho, 2)
        assert (ra.status, ra.chi_exponent) == (rd.status, rd.chi_exponent) == (EulerStatus.EXISTS, 3036)

    @pytest.mark.parametrize("p", [11, 13])
    def test_large_coefficients_at_phi_p_squared(self, p):
        # det F = Phi_(p^2)(u(1 + X)), u = 1 + p^2, at the character u + p^4: lambda = phi(p^2)
        # and coefficients of thousands of bits, so level 2 reads a norm valuation off
        # phi(p^2) coefficients, one Taylor shift and no product
        u = 1 + p * p
        M = GammaModule.from_int_matrix(PadicContext(p, 64), [[compose_twist(cyclotomic(p, 2), u)]])
        assert M.char_invariants()[0] == (p - 1) * p
        rho = Character.from_int(M.context, u + p**4)
        t0 = time.perf_counter()
        ra = M.euler_analytic(rho, 2)
        assert time.perf_counter() - t0 < 1.0
        rd = M.euler_direct(rho, 2)
        assert ra.exists and (ra.status, ra.chi_exponent) == (rd.status, rd.chi_exponent)
        assert M.euler_analytic(Character.from_int(M.context, u), 2).status is EulerStatus.NOT_FINITE


class TestCyclotomicCertificate:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 23])
    def test_cyclotomic_divides_matches_sympy(self, p):
        """Phi_(p^k) divides f exactly when its residue in R_k is 0, and every other
        `norm_valuation` is v_p of sympy's resultant with Phi_(p^k) (of f(1) at k = 0),
        for k <= 3 while phi(p^k) <= 506."""
        g = [2, -1, 0, 3]
        ks = [k for k in range(4) if len(cyclotomic(p, k)) <= 507]
        for k in ks:
            f = po.pmul(cyclotomic(p, k), g, None)
            near = [f[:i] + [f[i] + p] + f[i + 1:] for i in (0, len(f) - 1)] + [f + [p]]
            for j in ks:
                for h in [f] + near:
                    x = po.cyclotomic_fold(po.cyclic_reduce(h, p**j, None), p)
                    want = sum(h) if j == 0 else resultant_int(cyclotomic(p, j), h)
                    assert (want == 0) == (not any(x)) == (h is f and j == k), (p, k, j)
                    if want:
                        assert norm_valuation(x, p) == int_valuation(want, p), (p, k, j)

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_norm_valuation_of_random_residues(self, p):
        """Residues with planted p-adic valuations against v_p of sympy's resultant."""
        rng = random.Random(90 + p)
        for k in (0, 1, 2) if p < 13 else (0, 1):
            phi = p**k - p**k // p if k else 1
            for _ in range(12):
                x = [rng.choice([0, 1, p]) ** rng.randint(0, 3) * rng.randint(-50, 50)
                     for _ in range(phi)]
                if not any(x):
                    continue
                want = x[0] if k == 0 else resultant_int(cyclotomic(p, k), x)
                assert norm_valuation(x, p) == int_valuation(want, p), (p, k, x)

    @pytest.mark.parametrize("p", [3, 5, 11, 13])
    def test_planted_cyclotomic_factor(self, p):
        """c(X) = Phi_(p^k)(u(1+X)) * g(X) is not finite exactly from level k on."""
        g = [1 + p, -2, 1]
        for u in characters(p):
            for k in range(3):
                c = po.pmul(compose_twist(cyclotomic(p, k), u), g, None)
                for n in range(4):
                    got = gamma_h0_is_infinite(c, u, p, n)
                    assert got == (n >= k), (p, u, k, n)
                    self._agrees_with_level_resultant(c, u, p, n, got)

    @pytest.mark.parametrize("p", [3, 5, 11, 13])
    def test_near_misses_are_finite(self, p):
        for u in characters(p):
            for k in range(3):
                phi_u = compose_twist(cyclotomic(p, k), u)
                near = [phi_u[0] + p**3] + phi_u[1:]
                other_u = u + p**4
                for c, uu in ((near, u), (phi_u, other_u)):
                    for n in range(4):
                        assert not gamma_h0_is_infinite(c, uu, p, n), (p, u, k, n)
                        self._agrees_with_level_resultant(c, uu, p, n, False)

    def test_constant_determinant_is_finite(self):
        assert not gamma_h0_is_infinite([9], 4, 3, 3)
        assert sylvester_resultant(level_poly(3, 3), [9]) != 0

    @staticmethod
    def _agrees_with_level_resultant(c, u, p, n, got):
        cs = twisted_char_poly_int(c, u)
        if p**n + len(cs) <= 60:
            assert (sylvester_resultant(level_poly(p, n), cs) == 0) == got
        else:
            assert shares_factor_int(level_poly(p, n), cs) == got


class TestOneExactValue:
    """Both gamma routes read one exact value off the module's det F(h - 1) and (lambda, mu)."""

    @staticmethod
    def x_times_g_at_the_length_cap():
        """F = X g, one entry of LENGTH_CAP coefficients: not finite at u = 1 from level 0 on."""
        rng = random.Random(5)
        g = [1] + [rng.randint(-9, 9) for _ in range(LENGTH_CAP - 3)] + [1]
        M = GammaModule.from_int_matrix(PadicContext(3, 64), [[po.pmul([0, 1], g, None)]])
        assert len(M.exact_entries[0][0]) == LENGTH_CAP
        return M, Character.from_int(M.context, 1)

    def test_not_finite_direct_verdict_at_the_length_cap_in_under_50_ms(self):
        # det F(h - 1) is held, so the certificate reads one residue, P_u(1) = 0 at n = 0
        M, rho = self.x_times_g_at_the_length_cap()
        t0 = time.perf_counter()
        rd = M.euler_direct(rho, 0)
        elapsed = time.perf_counter() - t0
        assert rd.status is EulerStatus.NOT_FINITE
        assert elapsed < 0.05, elapsed

    def test_not_finite_verdicts_take_no_taylor_shift(self, monkeypatch):
        M, rho = self.x_times_g_at_the_length_cap()
        shifts = []
        for name in ("substitute_linear", "h_shift"):
            inner = getattr(po, name)
            monkeypatch.setattr(po, name, lambda *a, inner=inner: shifts.append(a) or inner(*a))
        for n in range(3):
            assert M.euler_direct(rho, n).status is EulerStatus.NOT_FINITE
            assert M.euler_analytic(rho, n).status is EulerStatus.NOT_FINITE
        assert shifts == []

    def test_one_verdict_mapping_for_both_stanza_kinds(self):
        # the analytic route passes no bound, euler_akashi N, a route that met p^N 0
        nf, ex, ind = EulerStatus.NOT_FINITE, EulerStatus.EXISTS, EulerStatus.INDETERMINATE
        cases = [((None,), nf, None), ((5,), ex, 5), ((None, 64), nf, None), ((63, 64), ex, 63),
                 ((64, 64), ind, None), ((0, 0), ind, None), ((None, 0), nf, None)]
        for args, status, chi in cases:
            r = EulerResult.from_exact(*args)
            assert (r.status, r.chi_exponent) == (status, chi), args
        assert EulerResult.from_exact(7) == EulerResult.from_h0(7)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_char_invariants_read_exactly_match_the_residues(self, p):
        # every other row scaled by p^2 gives mu > 0, and at N = 6 a coefficient
        # p^7 sits below the least valuation, where its residue is 0
        seen = set()
        for seed in (7, 8, 9):
            for M in gamma_corpus(seed, 8, p):
                for N in (64, 6):
                    base = [[[c * p ** (2 * (i % 2)) for c in e] for e in row]
                            for i, row in enumerate(M.exact_entries)]
                    for entries in (M.exact_entries, base, [[[p**7] + e for e in row]
                                                           for row in base]):
                        try:
                            X = GammaModule.from_int_matrix(PadicContext(p, N), entries)
                        except (PrecisionExhaustedError, ZeroDeterminantError):
                            continue
                        lam, mu = X.char_invariants()
                        assert (lam, mu) == lambda_mu(X.det), (p, entries, N)
                        vals = [int_valuation(c, p) for c in X.det_int]
                        seen.add((mu > 0, any(v is not None and v >= N for v in vals)))
        assert {(True, True), (True, False), (False, False)} <= seen

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_certificate_wrapper_matches_the_analytic_verdict(self, p):
        g = [1 + p, -2, 1]
        planted_factors = [
            GammaModule.from_int_matrix(
                PadicContext(p, N), [[po.pmul(compose_twist(cyclotomic(p, k), u), g, None)]])
            for u in characters(p) for k in range(3)
        ]
        verdicts = []
        for M in gamma_corpus(10 + p, 10, p) + planted(p) + planted_factors:
            for u in characters(p):
                rho = Character.from_int(M.context, u)
                for n in range(4):
                    got = gamma_h0_is_infinite(M.det_int, u, p, n)
                    assert got == (M.euler_analytic(rho, n).status is EulerStatus.NOT_FINITE), (
                        M.det_int, u, n)
                    verdicts.append(got)
        assert 10 < sum(verdicts) < len(verdicts)


def formed_twisted_chi(f, u, p, n):
    """`twisted_chi` with every coefficient of P_u formed (sympy), read at k <= last, plus the tail."""
    lam, mu = lambda_mu_int(f, p)
    if not lam:
        return mu * p**n
    last = 0
    while last < n and (p - 1) * p**last <= lam:
        last += 1
    chi = cyclotomic_valuation(twisted_char_poly_int(f, u), p, range(last + 1))
    return None if chi is None else chi + mu * (p**n - p**last) + lam * (n - last)


class TestTwistedChiFolded:
    """`twisted_chi` folds P_u into p^last accumulators and matches the formed P_u."""

    @staticmethod
    def chi(f, u, p, n):
        return twisted_chi(po.substitute_linear(f, -1, 1, None), u, p, n, *lambda_mu_int(f, p))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_random_corpus_matches_the_formed_polynomial(self, p):
        rng = random.Random(900 + p)
        seen = set()
        for _ in range(100):
            f = [rng.randint(-9, 9) for _ in range(rng.randint(2, 12))]
            f[-1] = f[-1] or 1
            u = 1 + p * rng.randint(0, 3 * p)
            shape = rng.randrange(3)
            if shape == 1:  # mu > 0
                f = [c * p ** rng.randint(1, 2) for c in f]
            elif shape == 2:  # a factor Phi_(p^k)(u(1 + X)): not finite from level k on
                f = po.pmul(compose_twist(cyclotomic(p, rng.randint(0, 2)), u), f, None)
            n = rng.randint(0, 3)
            want = formed_twisted_chi(f, u, p, n)
            assert self.chi(f, u, p, n) == want, (f, u, n)
            seen.add((shape, want is None))
        assert {(0, False), (1, False), (2, True)} <= seen

    @pytest.mark.parametrize("p", [3, 5])
    def test_corpus_and_planted_modules(self, p):
        for M in gamma_corpus(40 + p, 6, p) + planted(p):
            for u in characters(p):
                for n in range(3):
                    assert self.chi(M.det_int, u, p, n) == formed_twisted_chi(M.det_int, u, p, n)

    def test_large_character_at_the_length_cap_in_bounded_time_and_memory(self):
        # F = 3 + X g of degree 1023 (lambda = 1), n = 1, u = 1 + 3^400: P_u's
        # coefficients alone would hold about 40 MB; the accumulators hold three values
        rng = random.Random(5)
        F = [3] + [rng.randint(-9, 9) for _ in range(1022)] + [1]
        M = GammaModule.from_int_matrix(PadicContext(3, 64), [[F]])
        rho = Character.from_int(M.context, 1 + 3**400)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            got = M.euler_analytic(rho, 1)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.exists and got.chi_exponent == 2
        assert elapsed < 3.0, elapsed
        assert peak < 4 << 20, peak


class TestCertificateThroughTheCli:
    def test_x_at_rank_729_is_not_finite_in_seconds(self, tmp_path):
        problem = {"kind": "gamma", "p": "3", "d": 1, "F": [[["0", "1"]]],
                   "characters": ["1"], "n_levels": [6]}
        inp = tmp_path / "x.json"
        inp.write_text(json.dumps(problem))
        out = tmp_path / "x.report.json"
        t0 = time.perf_counter()
        code = main(["euler", "--input", str(inp), "--out", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        (task,) = json.loads(out.read_text())["tasks"]
        assert task["status"] == "not-finite-detected"
        assert task["analytic_status"] == "not-finite-detected"
        assert elapsed < 5.0, elapsed


class TestResultantOracle:
    """`oracles.resultant_int` is the Sylvester determinant, sign included."""

    def test_examples_where_sympy_swapped_the_factors(self):
        f = [3, -3, -6, 6, -9, 3, 4, -9]
        assert resultant_int([-1, 1], f) == sylvester_det_int([-1, 1], f) == -11
        assert resultant_int(f, [-1, 1]) == sylvester_det_int(f, [-1, 1]) == 11
        assert resultant_int([-1, 1], [6, 5]) == sylvester_det_int([-1, 1], [6, 5]) == 11

    def test_random_pairs(self):
        rng = random.Random(11)
        for _ in range(200):
            f, g = ([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))] for _ in range(2))
            want = sylvester_det_int(f, g)
            assert resultant_int(f, g) == want == sylvester_resultant(f, g), (f, g)
