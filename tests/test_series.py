import math
import random

import pytest
from hypothesis import given, strategies as st

from iwalab import (
    AT_LEAST_N,
    Character,
    PadicContext,
    PowerSeries,
    ValidationError,
    ZeroToPrecisionError,
    det_mult_mod_omega,
    lambda_mu,
    twist_series,
    weierstrass_prepare,
)

from iwalab import series
from iwalab.workbench import PRECISION_CAP
from oracles import hensel_prepare_one_digit, int_valuation, resultant_int

CTX = PadicContext(3, 16)


def S(ints, ctx=CTX, var="X"):
    return PowerSeries.from_ints(ctx, var, ints)


def rand_series(rng, ctx, length, bound=20):
    return PowerSeries.from_ints(ctx, "X", [rng.randint(-bound, bound) for _ in range(length)])


class TestPowerSeries:
    def test_exact_constructor_trims(self):
        f = S([1, 2, 0, 0])
        assert f.exact_degree == 1
        assert f.coeffs == (1, 2)

    def test_mul_exact_full_degree(self):
        f = S([0, 1]) * S([0, 1])
        assert f.exact_degree == 2
        assert f.coeffs == (0, 0, 1)

    def test_negative_degree_refused(self):
        with pytest.raises(ValidationError) as err:
            PowerSeries(PadicContext(3, 4), "X", (0,), -1)
        assert err.value.invariant == "exact-degree"

    def test_variable_mismatch(self):
        from iwalab import MixedContextError

        with pytest.raises(MixedContextError):
            S([1]) * PowerSeries.from_ints(CTX, "Y", [1])


class TestCharacter:
    def test_character_invariant(self):
        with pytest.raises(ValidationError):
            Character.from_int(CTX, 2)

    def test_holds_no_precision(self):
        # the exact u and its prime only: built in any context, it is one character
        u = 1 + 3**20
        assert Character.from_int(PadicContext(3, 8), u) == Character.from_int(CTX, u) == Character(u, 3)


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
        f = rand_series(rng, CTX, rng.randint(4, 12))
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
        assert recon == list(f.coeffs), (w.mu, w.lam)


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
            calls = 0
            weierstrass_prepare(PowerSeries.from_ints(ctx, "X", f))
            assert 0 < calls <= bound, (deg, calls)


class TestLambdaMu:
    def test_examples(self):
        assert lambda_mu(S([3, 1])) == (1, 0)
        assert lambda_mu(S([9, 0, 3])) == (2, 1)
        assert lambda_mu(S([2])) == (0, 0)

    @given(st.integers(min_value=0, max_value=10**4))
    def test_additivity_under_products(self, seed):
        rng = random.Random(seed)
        f = rand_series(rng, CTX, rng.randint(1, 6), bound=9)
        g = rand_series(rng, CTX, rng.randint(1, 6), bound=9)
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
        f = rand_series(rng, CTX, rng.randint(1, 6))
        g = rand_series(rng, CTX, rng.randint(1, 6))
        u = 1 + 3 * rng.randint(0, 20)
        rho = Character.from_int(CTX, u)
        d = rng.choice(["forward", "inverse"])
        tf, tg = twist_series(f, rho, d), twist_series(g, rho, d)
        q = CTX.modulus
        deg = max(f.exact_degree, g.exact_degree)
        f_plus_g = PowerSeries(CTX, "X", tuple(series.po.padd(f.coeffs, g.coeffs, q)), deg)
        want = tuple(series.po.padd(tf.coeffs, tg.coeffs, q))
        assert twist_series(f_plus_g, rho, d).coeffs == want
        fg_t = twist_series(f * g, rho, d)
        assert fg_t.coeffs == (tf * tg).coeffs
        assert twist_series(S([1]), rho, d).coeffs == (1,)

    @given(st.integers(min_value=0, max_value=10**4))
    def test_forward_inverse_roundtrip(self, seed):
        rng = random.Random(seed)
        f = rand_series(rng, CTX, rng.randint(1, 8))
        rho = Character.from_int(CTX, 1 + 3 * rng.randint(1, 20))
        back = twist_series(twist_series(f, rho, "forward"), rho, "inverse")
        assert back.coeffs == f.coeffs


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
