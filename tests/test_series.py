import math
import random

import pytest
from hypothesis import given, strategies as st

from iwalab import (
    AT_LEAST_N,
    Character,
    DivisorDivisibleByPError,
    PadicContext,
    PowerSeries,
    TailUncertifiedError,
    ValidationError,
    ZeroToPrecisionError,
    det_mult_mod_omega,
    evaluate_character,
    lambda_mu,
    omega,
    twist_series,
    weierstrass_divide,
    weierstrass_prepare,
)

from iwalab import series
from iwalab.workbench import PRECISION_CAP
from oracles import hensel_prepare_one_digit, int_valuation, poly_reduce_mod_int, resultant_int

CTX = PadicContext(3, 16)


def S(ints, ctx=CTX, var="X"):
    return PowerSeries.from_ints(ctx, var, ints)


def rand_series(rng, ctx, trunc, exact=False, bound=20):
    c = [rng.randint(-bound, bound) for _ in range(trunc)]
    if exact:
        return PowerSeries.from_ints(ctx, "X", c)
    return PowerSeries.truncated(ctx, "X", [v % ctx.modulus for v in c], trunc=trunc)


class TestPowerSeries:
    def test_exact_constructor_trims(self):
        f = S([1, 2, 0, 0])
        assert f.exact_degree == 1
        assert f.coeffs == (1, 2)

    def test_truncated_window(self):
        f = PowerSeries.truncated(CTX, "X", [1, 2], trunc=5)
        assert f.truncation == 5
        assert f.coeffs == (1, 2, 0, 0, 0)

    def test_mul_truncates_to_min_window(self):
        a = PowerSeries.truncated(CTX, "X", [1, 1], trunc=3)
        b = PowerSeries.truncated(CTX, "X", [1, 1], trunc=5)
        assert (a * b).truncation == 3

    def test_mul_exact_full_degree(self):
        f = S([0, 1]) * S([0, 1])
        assert f.exact_degree == 2
        assert f.coeffs == (0, 0, 1)

    def test_variable_mismatch(self):
        from iwalab import MixedContextError

        with pytest.raises(MixedContextError):
            S([1]) * PowerSeries.from_ints(CTX, "Y", [1])


class TestWeierstrassDivide:
    def test_x_squared_by_x_plus_three(self):
        # oracle: polynomial long division over Z: X^2 = (X-3)(X+3) + 9
        q, r = weierstrass_divide(S([0, 0, 1]), S([3, 1]))
        assert q.coeffs == ((-3) % CTX.modulus, 1)
        assert r.coeffs == (9,)

    def test_unit_divisor(self):
        f = S([5, 7, 11])
        q, r = weierstrass_divide(f, S([1]))
        assert q.coeffs == f.coeffs
        assert r.is_zero_to_precision()

    def test_self_division(self):
        f = S([3, 1])
        q, r = weierstrass_divide(f, f)
        assert q.coeffs == (1,)
        assert r.is_zero_to_precision()

    def test_divisor_divisible_by_p(self):
        with pytest.raises(DivisorDivisibleByPError):
            weierstrass_divide(S([1]), S([3, 9]))

    @given(st.integers(min_value=0, max_value=10**4))
    def test_division_identity_on_window(self, seed):
        rng = random.Random(seed)
        f = rand_series(rng, CTX, 12, exact=rng.random() < 0.5)
        # divisor with a guaranteed unit coefficient somewhere
        lam = rng.randint(0, 3)
        gc = [3 * rng.randint(-5, 5) for _ in range(lam)] + [1 + 3 * rng.randint(0, 5)]
        gc += [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.5:
            g = PowerSeries.from_ints(CTX, "X", gc)
        else:
            g = PowerSeries.truncated(CTX, "X", [v % CTX.modulus for v in gc], trunc=12)
        q, r = weierstrass_divide(f, g)
        assert r.exact_degree is None or r.exact_degree < max(lam, 1)
        prod = q * g + r
        window = min(w for w in (prod.truncation, 12) if w is not None)
        for j in range(min(window, len(prod.coeffs))):
            fj = f.coeffs[j] if j < len(f.coeffs) else 0
            assert prod.coeffs[j] == fj

    @staticmethod
    def check_remainder_against_oracle(f, g, p, N):
        ctx = PadicContext(p, N)
        fs, gs = PowerSeries.from_ints(ctx, "X", f), PowerSeries.from_ints(ctx, "X", g)
        lam = next(i for i, c in enumerate(gs.coeffs) if c % p)
        P, _ = hensel_prepare_one_digit(list(gs.coeffs), lam, p, N)
        want = [c % ctx.modulus for c in poly_reduce_mod_int(list(fs.coeffs), P)]
        want += [0] * (lam - len(want))
        _, r = weierstrass_divide(fs, gs)
        assert r.coeffs == tuple(want), (f, g, p, N)
        return r

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_unit_leading_coefficient_is_one_long_division(self, p, monkeypatch):
        # g's unit coefficient leads, so g = lead * P with P = g / lead
        # distinguished: the division runs no lift, only one long division by g
        def no_lift(*args):
            raise AssertionError("Hensel lift run for a divisor whose unit coefficient leads")

        monkeypatch.setattr(series, "_hensel_prepare_poly", no_lift)
        rng = random.Random(p)
        for N in (2, 64, 1024):
            ctx = PadicContext(p, N)
            q = ctx.modulus
            for _ in range(4):
                lam = rng.randint(1, 4)
                g = rand_prepare_input(rng, p, 3, lam, lam)
                f = [rng.randint(-p**4, p**4) for _ in range(rng.randint(1, 12))]
                fs, gs = PowerSeries.from_ints(ctx, "X", f), PowerSeries.from_ints(ctx, "X", g)
                quo, rem = weierstrass_divide(fs, gs)
                want_q, want_r = series.po.poly_divmod_unit_lead(list(fs.coeffs), list(gs.coeffs), q)
                assert quo.is_exact and quo.coeffs == tuple(want_q), (f, g, N)
                assert rem.coeffs == tuple(want_r + [0] * (lam - len(want_r))), (f, g, N)
                # the oracle's lift finds the same factorization P * lead
                P, _ = hensel_prepare_one_digit(list(gs.coeffs), lam, p, N)
                lead = gs.coeffs[lam]
                assert [c * lead % q for c in P] == list(gs.coeffs), (g, N)
                assert P[-1] == 1 and all(c % p == 0 for c in P[:-1]), (g, N)
                self.check_remainder_against_oracle(f, g, p, N)

    def test_remainder_example_p7(self):
        f = [24, 324, 199, -314, 133, -88, 321, -290, -183, -228, 37, 137]
        r = self.check_remainder_against_oracle(f, [7, 21, 1, -9, -3], 7, 16)
        assert r.coeffs == (1854028793438, 21043474486820)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("N", [2, 16, 40])
    def test_remainder_is_f_mod_distinguished_part(self, p, N):
        # g's unit coefficient is not its leading one, so g = P * U with U of degree >= 1
        rng = random.Random(100 * p + N)
        for _ in range(8):
            lam = rng.randint(1, 3)
            deg = lam + rng.randint(1, 3)
            g = rand_prepare_input(rng, p, 3, deg, lam, lead_div_p=rng.random() < 0.5)
            f = [rng.randint(-p**4, p**4) for _ in range(rng.randint(1, 12))]
            self.check_remainder_against_oracle(f, g, p, N)


class TestWeierstrassPrepare:
    def test_already_distinguished(self):
        w = weierstrass_prepare(S([3, 1]))
        assert (w.mu, w.lam) == (0, 1)
        assert w.distinguished.coeffs == (3, 1)
        assert w.unit.coeffs[0] == 1

    def test_scalar_times_x(self):
        w = weierstrass_prepare(S([0, 3]))
        assert (w.mu, w.lam) == (1, 1)
        assert w.distinguished.coeffs == (0, 1)

    def test_nine_plus_three_x_squared(self):
        # oracle: factor 3 out; X^2 + 3 is distinguished with lambda = 2, mu = 1
        w = weierstrass_prepare(S([9, 0, 3]))
        assert (w.mu, w.lam) == (1, 2)
        assert w.distinguished.coeffs == (3, 0, 1)
        assert w.unit.coeffs == (1,)

    def test_zero_to_precision(self):
        with pytest.raises(ZeroToPrecisionError):
            weierstrass_prepare(S([0]))

    @given(st.integers(min_value=0, max_value=10**4))
    def test_reconstruction(self, seed):
        rng = random.Random(seed)
        exact = rng.random() < 0.5
        f = rand_series(rng, CTX, rng.randint(4, 12), exact=exact)
        if f.is_zero_to_precision():
            return
        w = weierstrass_prepare(f)
        # distinguished part is monic with sub-lambda coefficients divisible by p
        assert w.distinguished.coeffs[-1] == 1
        ctx1 = w.distinguished.context
        for c in w.distinguished.coeffs[:-1]:
            assert c % 3 == 0
        assert ctx1.int_valuation(w.unit.coeffs[0]) == 0
        prod = w.distinguished * w.unit
        pm = 3**w.mu
        recon = [(c * pm) % CTX.modulus for c in prod.coeffs]
        window = len(prod.coeffs)
        for j in range(min(window, len(f.coeffs))):
            assert recon[j] == f.coeffs[j], (j, w.mu, w.lam)

    @given(st.integers(min_value=0, max_value=10**4))
    def test_truncated_is_prepare_of_window_polynomial(self, seed):
        rng = random.Random(seed)
        p = rng.choice([3, 5, 7])
        ctx = PadicContext(p, rng.choice([2, 16, 40]))
        window = rng.randint(1, 12)
        ints = [p**rng.randint(0, 2) * rng.randint(-p**3, p**3) for _ in range(window)]
        f = PowerSeries.truncated(ctx, "X", [v % ctx.modulus for v in ints], trunc=window)
        if f.is_zero_to_precision():
            return
        w = weierstrass_prepare(f)
        we = weierstrass_prepare(PowerSeries.from_ints(ctx, "X", f.coeffs))
        assert (w.mu, w.lam) == (we.mu, we.lam)
        assert w.distinguished == we.distinguished
        assert w.unit.truncation == window - w.lam
        assert w.unit.coeffs == (we.unit.coeffs + (0,) * window)[:window - w.lam]
        q1 = w.distinguished.context.modulus
        f1 = [c // p**w.mu for c in f.coeffs]
        prod = series.po.pmul(list(w.distinguished.coeffs), list(w.unit.coeffs), q1)
        assert (prod + [0] * window)[:window] == f1
        assert not any(prod[window:])


def rand_prepare_input(rng, p, N, deg, lam, lead_div_p=False):
    """Exact integer coefficients with first unit coefficient at lam (mu = 0)."""
    f = [p * rng.randint(-p**N, p**N) for _ in range(lam)]
    f.append(rng.choice([u for u in range(-3 * p, 3 * p) if u % p]))
    f += [rng.randint(-p**N, p**N) for _ in range(deg - lam)]
    if lead_div_p and deg > lam:
        f[-1] = p * rng.choice((1, -2, 5))
    return f


class TestExactPrepareAtEscalationPrecision:
    """The exact-polynomial prepare against the one-digit Hensel lift of the oracle."""

    @staticmethod
    def check_against_oracle(f, p, N):
        g = PowerSeries.from_ints(PadicContext(p, N), "X", f)
        w = weierstrass_prepare(g)
        f1 = [c // p**w.mu for c in g.coeffs]
        P, U = hensel_prepare_one_digit(f1, w.lam, p, w.distinguished.context.N)
        assert w.distinguished.coeffs == tuple(P)
        if w.lam:
            assert w.unit.coeffs == tuple(U)
        else:  # the unit is f1 itself, trailing zeros mod p^N kept
            assert w.unit.coeffs == tuple(f1) and series.po.trim_int(f1) == U
        q1 = w.distinguished.context.modulus
        assert series.po.trim_int(series.po.pmul(P, U, q1)) == series.po.trim_int(f1)
        return w

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("N", [1, 2, 3, 18, 64, 100, 256, 1024])
    def test_matches_one_digit_lift(self, p, N):
        rng = random.Random(1000 * p + N)
        for case in range(7):
            deg = rng.randint(1, 9)
            lam = deg if case == 0 else 0 if case == 6 else rng.randint(1, deg)
            f = rand_prepare_input(rng, p, N, deg, lam, lead_div_p=case % 2 == 1)
            w = self.check_against_oracle(f, p, N)
            assert (w.mu, w.lam) == (0, lam)

    @pytest.mark.parametrize("p, N", [(3, 64), (5, 100), (7, 256)])
    def test_matches_one_digit_lift_with_mu(self, p, N):
        rng = random.Random(p * N)
        for mu in (0, 1, 2, 3):
            f = [p**mu * c for c in rand_prepare_input(rng, p, N - mu, 5, 2, lead_div_p=True)]
            w = self.check_against_oracle(f, p, N)
            assert (w.mu, w.lam, w.distinguished.context.N) == (mu, 2, N - mu)

    @pytest.mark.parametrize(
        "f, p",
        [([7**5, 37, 2, 5], 7), ([2 * 3**70, 4, 1, 3], 3), ([-(3**70), 1, 0, 0, 3], 3)],
        ids=["7^5", "2*3^70", "-3^70-lead-div-p"],
    )
    def test_residual_vanishing_at_intermediate_modulus(self, f, p):
        # f - P*U vanishes at a low modulus while P = X is still wrong mod p^128
        w = self.check_against_oracle(f, p, 128)
        assert w.lam == 1
        assert w.distinguished.coeffs != (0, 1)

    def test_pass_count_is_logarithmic(self, monkeypatch):
        calls = 0
        pmul = series.po.pmul

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return pmul(*args, **kwargs)

        monkeypatch.setattr(series.po, "pmul", counting)
        ctx = PadicContext(3, PRECISION_CAP)
        bound = 4 * math.ceil(math.log2(PRECISION_CAP))
        rng = random.Random(5)
        for deg in range(3, 11):
            f = rand_prepare_input(rng, 3, 40, deg, rng.randint(1, deg))
            g = rand_prepare_input(rng, 3, 40, deg, rng.randint(1, deg - 1), lead_div_p=True)
            exact = PowerSeries.from_ints(ctx, "X", f)
            window = PowerSeries.truncated(ctx, "X", exact.coeffs, trunc=deg + 3)
            for run in (
                lambda: weierstrass_prepare(exact),
                lambda: weierstrass_prepare(window),
                lambda: weierstrass_divide(exact, PowerSeries.from_ints(ctx, "X", g)),
            ):
                calls = 0
                run()
                assert 0 < calls <= bound, (deg, calls)


class TestLambdaMu:
    def test_examples(self):
        assert lambda_mu(S([3, 1])) == (1, 0)
        assert lambda_mu(S([9, 0, 3])) == (2, 1)
        assert lambda_mu(S([2])) == (0, 0)

    @given(st.integers(min_value=0, max_value=10**4))
    def test_additivity_under_products(self, seed):
        rng = random.Random(seed)
        f = rand_series(rng, CTX, rng.randint(1, 6), exact=True, bound=9)
        g = rand_series(rng, CTX, rng.randint(1, 6), exact=True, bound=9)
        if f.is_zero_to_precision() or g.is_zero_to_precision():
            return
        lf, mf = lambda_mu(f)
        lg, mg = lambda_mu(g)
        if mf + mg >= CTX.N:
            return
        lfg, mfg = lambda_mu(f * g)
        assert (lfg, mfg) == (lf + lg, mf + mg)


class TestTwist:
    def test_trivial_twist_fixes(self):
        rho = Character.trivial(CTX)
        f = S([5, 1, 2])
        for d in ("forward", "inverse"):
            assert twist_series(f, rho, d).coeffs == f.coeffs

    def test_forward_on_x(self):
        # oracle: substitute X -> 4(1+X) - 1 symbolically: 3 + 4X
        rho = Character.from_int(CTX, 4)
        assert twist_series(S([0, 1]), rho, "forward").coeffs == (3, 4)

    def test_inverse_on_group_like(self):
        rho = Character.from_int(CTX, 4)
        inv4 = pow(4, -1, CTX.modulus)
        t = twist_series(S([1, 1]), rho, "inverse")
        assert t.coeffs == (inv4, inv4)

    @given(st.integers(min_value=0, max_value=10**4))
    def test_ring_homomorphism_on_polynomials(self, seed):
        rng = random.Random(seed)
        f = rand_series(rng, CTX, rng.randint(1, 6), exact=True)
        g = rand_series(rng, CTX, rng.randint(1, 6), exact=True)
        u = 1 + 3 * rng.randint(0, 20)
        rho = Character.from_int(CTX, u)
        d = rng.choice(["forward", "inverse"])
        tf, tg = twist_series(f, rho, d), twist_series(g, rho, d)
        assert twist_series(f + g, rho, d).coeffs == (tf + tg).coeffs
        fg_t = twist_series(f * g, rho, d)
        assert fg_t.coeffs == (tf * tg).coeffs
        assert twist_series(S([1]), rho, d).coeffs == (1,)

    @given(st.integers(min_value=0, max_value=10**4))
    def test_forward_inverse_roundtrip(self, seed):
        rng = random.Random(seed)
        f = rand_series(rng, CTX, rng.randint(1, 8), exact=True)
        rho = Character.from_int(CTX, 1 + 3 * rng.randint(1, 20))
        back = twist_series(twist_series(f, rho, "forward"), rho, "inverse")
        assert back.coeffs == f.coeffs

    def test_evaluation_is_twist_at_zero(self):
        rng = random.Random(7)
        for _ in range(20):
            f = rand_series(rng, CTX, rng.randint(1, 7), exact=True)
            rho = Character.from_int(CTX, 1 + 3 * rng.randint(0, 20))
            for d in ("forward", "inverse"):
                ev = evaluate_character(f, rho, d)
                assert ev.residue == twist_series(f, rho, d).coeffs[0]


class TestEvaluateCharacter:
    def test_forward_at_four(self):
        rho = Character.from_int(CTX, 4)
        assert evaluate_character(S([0, 1]), rho, "forward").residue == 3

    def test_inverse_valuation(self):
        # oracle: u^-1 - 1 = (1-u)/u = -3/4 has valuation 1 at u = 4
        rho = Character.from_int(CTX, 4)
        v = evaluate_character(S([0, 1]), rho, "inverse").valuation()
        assert v == 1

    def test_constants_fixed(self):
        rho = Character.from_int(CTX, 7)
        assert evaluate_character(S([11]), rho, "forward").residue == 11

    def test_tail_uncertified(self):
        f = PowerSeries.truncated(CTX, "X", [1] * 4, trunc=4)
        rho = Character.from_int(CTX, 4)
        with pytest.raises(TailUncertifiedError):
            evaluate_character(f, rho, "forward")

    def test_character_invariant(self):
        with pytest.raises(ValidationError):
            Character.from_int(CTX, 2)


class TestOmega:
    def test_level_zero(self):
        assert omega(0, CTX).coeffs == (0, 1)

    def test_level_one_p3(self):
        assert omega(1, CTX).coeffs == (0, 3, 3, 1)

    def test_level_one_p5(self):
        ctx5 = PadicContext(5, 10)
        assert omega(1, ctx5).coeffs == (0, 5, 10, 10, 5, 1)


class TestDetMultModOmega:
    def test_x_at_level_zero(self):
        d = det_mult_mod_omega(S([0, 1]), 0)
        assert d.valuation() is AT_LEAST_N

    def test_x_minus_three_level_zero(self):
        d = det_mult_mod_omega(S([-3, 1]), 0)
        assert d.residue == (-3) % CTX.modulus
        assert d.valuation() == 1

    def test_x_minus_three_level_one(self):
        # oracle: Res(omega_1, X-3) = omega_1(3) = 4^3 - 1 = 63, valuation 2
        assert (1 + 3) ** 3 - 1 == 63
        d = det_mult_mod_omega(S([-3, 1]), 1)
        assert d.valuation() == 2
        assert d.residue in (63 % CTX.modulus, (-63) % CTX.modulus)

    @given(st.integers(min_value=0, max_value=2500))
    def test_matches_integer_resultant(self, seed):
        rng = random.Random(seed)
        p = rng.choice([3, 5])
        ctx = PadicContext(p, 12)
        deg = rng.randint(0, 6)
        f_int = [rng.randint(-9, 9) for _ in range(deg + 1)]
        if all(c == 0 for c in f_int):
            return
        n = rng.randint(0, 2)
        f = PowerSeries.from_ints(ctx, "X", f_int)
        got = det_mult_mod_omega(f, n)
        from iwalab._polyops import omega_coeffs

        want = resultant_int(omega_coeffs(p, n), f_int)
        v = int_valuation(want, p)
        if want == 0 or v >= ctx.N:
            assert got.valuation() is AT_LEAST_N
        else:
            assert got.valuation() == v
            assert got.residue in (want % ctx.modulus, (-want) % ctx.modulus)

    def test_truncated_precision_reduction(self):
        f = PowerSeries.truncated(CTX, "X", [2, 1] + [0] * 10, trunc=12)
        d = det_mult_mod_omega(f, 1)
        # window 12 over p^1 = 3 certifies 4 digits
        assert d.context.N == 4
