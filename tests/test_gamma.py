import random

import pytest

from iwalab import _polyops as po
from iwalab import (
    BudgetExhaustedError,
    Character,
    EulerStatus,
    GammaModule,
    PadicContext,
    PowerSeries,
    PrecisionExhaustedError,
    ValidationError,
    ZeroDeterminantError,
    find_twist,
    lambda_mu,
    series_matrix_det,
    twist_series,
    weierstrass_prepare,
)
from iwalab.corpus import random_gamma_module
from iwalab.exactint import poly_mat_det

from oracles import gamma_not_finite, poly_det_int

CTX = PadicContext(3, 32)
TRIV = Character.trivial(CTX)
U4 = Character.from_int(CTX, 4)


def gamma(entries, ctx=CTX):
    return GammaModule.from_int_matrix(ctx, entries)


class TestConstruction:
    def test_zero_determinant_rejected(self):
        with pytest.raises(ZeroDeterminantError):
            gamma([[[0]]])

    def test_singular_two_by_two_rejected(self):
        with pytest.raises(ZeroDeterminantError):
            gamma([[[0, 1], [0, 1]], [[0, 1], [0, 1]]])

    def test_determinant_vanishing_mod_p_n_asks_for_precision(self):
        # det = 81 X is nonzero but 0 mod 3^4
        with pytest.raises(PrecisionExhaustedError):
            gamma([[[0, 9], [0]], [[0], [9]]], PadicContext(3, 4))

    def test_empty_entry_rejected(self):
        with pytest.raises(ValidationError) as exc:
            gamma([[[1], []], [[0], [1]]])
        assert exc.value.invariant == "nonempty"

    @pytest.mark.parametrize(
        "entries,invariant",
        [
            ([[[1], [0]]], "square-presentation"),
            ([[[1], [0]], [[1]]], "square-presentation"),
            ([], "square-presentation"),
        ],
    )
    def test_constructor_refuses_malformed_entries(self, entries, invariant):
        with pytest.raises(ValidationError) as exc:
            GammaModule(CTX, entries)
        assert exc.value.invariant == invariant


def _random_poly_matrix(rng, d, deg=3, bound=9):
    return [
        [[rng.randint(-bound, bound) for _ in range(rng.randint(1, deg + 1))] for _ in range(d)]
        for _ in range(d)
    ]


def _x_identity_plus_constant(rng, d):
    c = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
    return [[[c[i][j]] + ([1] if i == j else []) for j in range(d)] for i in range(d)]


def _signed_powers_of_three(rng, d, deg, top):
    """A d x d matrix whose coefficients are +-3^j, j <= top, or 0."""
    return [
        [[rng.choice((-1, 0, 1)) * 3 ** rng.randint(0, top) for _ in range(rng.randint(1, deg + 1))]
         for _ in range(d)]
        for _ in range(d)
    ]


def _zero_row_among_powers_of_three(rng):
    m = [[[rng.choice((-1, 1)) * 3**150, 3**150] for _ in range(4)] for _ in range(4)]
    m[2] = [[0] for _ in range(4)]
    return m


def _bound_tight_diagonals():
    """Diagonals of +-(2^k - 1), signs alternating.

    |det F| = (2^k - 1)^d is the bound prod_i sum_j |F_ij|_1 itself, so for
    large k it lies just below 2^(kd), the half-range of the signed digits.
    """
    return [
        [[[(-1) ** i * (2**k - 1)] if i == j else [0] for j in range(d)] for i in range(d)]
        for k in (1, 2, 7, 31, 64)
        for d in (1, 2, 3, 5)
    ]


class TestPresentationDeterminant:
    def test_random_matrices_match_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            m = _random_poly_matrix(rng, rng.randint(1, 6))
            assert poly_mat_det(m) == poly_det_int(m)

    def test_zero_leading_pivot_swaps_rows(self):
        # det [[0, 1], [X, 2]] = -X
        m = [[[0], [1]], [[0, 1], [2]]]
        assert poly_mat_det(m) == poly_det_int(m) == [0, -1]

    def test_zero_pivot_after_first_step(self):
        # the (1, 1) entry is 1*1 - 1*1 = 0 after eliminating column 0
        m = [[[1], [1], [0]], [[1], [1], [1]], [[0], [1], [0, 1]]]
        assert poly_mat_det(m) == poly_det_int(m) == [-1]

    def test_singular_and_rank_one(self):
        rng = random.Random(42)
        for d in range(2, 6):
            u = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(d)]
            v = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(d)]
            rank_one = [[po.pmul(a, b, None) for b in v] for a in u]
            assert poly_mat_det(rank_one) == poly_det_int(rank_one) == [0]
            m = _random_poly_matrix(rng, d)
            m[-1] = [po.pmul([2, 1], e, None) for e in m[0]]  # (X + 2) * first row
            assert poly_mat_det(m) == poly_det_int(m) == [0]
        assert poly_mat_det([[[0], [0]], [[0], [0]]]) == [0]

    def test_one_by_one(self):
        assert poly_mat_det([[[-3, 0, 1, 0]]]) == [-3, 0, 1]
        assert poly_mat_det([[[0, 0]]]) == [0]

    def test_x_identity_plus_constant_at_d10(self):
        d = 10
        m = _x_identity_plus_constant(random.Random(43), d)
        det = poly_mat_det(m)
        assert det == poly_det_int(m)
        assert len(det) == d + 1 and det[-1] == 1

    # name -> (matrices built from a seeded rng, the determinant fixed by construction or None)
    INPUTS = {
        "empty": (lambda rng: [[]], [1]),
        "zero-row-among-3^150": (lambda rng: [_zero_row_among_powers_of_three(rng)], [0]),
        "bound-tight-diagonal": (lambda rng: _bound_tight_diagonals(), None),
        "d2-degree-80": (lambda rng: [_random_poly_matrix(rng, 2, deg=80) for _ in range(3)], None),
        "d1-degree-300": (
            lambda rng: [
                [[[rng.randint(-9, 9) for _ in range(300)] + [-1]]],
                _signed_powers_of_three(rng, 1, 300, 100),
            ],
            None,
        ),
        "d16-x-identity-plus-constant": (lambda rng: [_x_identity_plus_constant(rng, 16)], None),
        "powers-of-three-sweep": (
            lambda rng: [_signed_powers_of_three(rng, rng.randint(1, 5), 3, 150) for _ in range(40)],
            None,
        ),
    }

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_inputs_match_oracle(self, name):
        build, want = self.INPUTS[name]
        for m in build(random.Random(45)):
            det = poly_mat_det(m)
            assert det == poly_det_int(m)
            if want is not None:
                assert det == want

    def test_series_determinant_is_reduction_mod_p_n(self):
        rng = random.Random(44)
        ctx = PadicContext(3, 6)
        q = ctx.modulus
        for _ in range(30):
            m = _random_poly_matrix(rng, rng.randint(1, 5), bound=3**8)
            F = [[PowerSeries.from_ints(ctx, "X", e) for e in row] for row in m]
            det = series_matrix_det(F)
            assert det.coeffs == tuple(c % q for c in poly_det_int(m))


class TestCharacteristicElement:
    def test_one_by_one(self):
        M = gamma([[[-3, 1]]])
        c = M.characteristic_element()
        assert c.exact_degree == 1
        assert c.coeffs == ((-3) % CTX.modulus, 1)
        assert M.char_invariants() == (1, 0)

    def test_diagonal(self):
        M = gamma([[[0, 1], [0]], [[0], [3]]])
        assert M.char_invariants() == (1, 1)
        c = M.characteristic_element()
        assert c.coeffs == (0, 3)

    def test_off_diagonal(self):
        # oracle: symbolic 2x2 determinant of [[X, 3], [3, X]] is X^2 - 9
        M = gamma([[[0, 1], [3]], [[3], [0, 1]]])
        assert M.char_invariants() == (2, 0)
        c = M.characteristic_element()
        assert c.coeffs == ((-9) % CTX.modulus, 0, 1)


class TestEulerDirect:
    def test_x_trivial_not_finite(self):
        M = gamma([[[0, 1]]])
        assert M.euler_direct(TRIV, 0).status is EulerStatus.NOT_FINITE

    def test_x_minus_three_trivial(self):
        # oracle: |Z_3 / (-3)| = 3
        r = gamma([[[-3, 1]]]).euler_direct(TRIV, 0)
        assert r.exists and r.chi_exponent == 1

    def test_x_twisted(self):
        # oracle: |Z_3 / (u^-1 - 1)| = 3^{v3(-3/4)} = 3
        r = gamma([[[0, 1]]]).euler_direct(U4, 0)
        assert r.exists and r.chi_exponent == 1

    def test_h1_zero_when_exists(self):
        r = gamma([[[-3, 1]]]).euler_direct(TRIV, 1)
        assert r.h1_exponent == 0 and r.chi_exponent == r.h0_exponent


class TestEulerAnalytic:
    def test_trivial_evaluates_at_zero(self):
        r = gamma([[[-3, 1]]]).euler_analytic(TRIV, 0)
        assert r.exists and r.chi_exponent == 1

    def test_twisted_x(self):
        r = gamma([[[0, 1]]]).euler_analytic(U4, 0)
        assert r.exists and r.chi_exponent == 1

    def test_level_one(self):
        # oracle: Res(omega_1, X-3) = 63, valuation 2
        r = gamma([[[-3, 1]]]).euler_analytic(TRIV, 1)
        assert r.exists and r.chi_exponent == 2

    def test_status_agreement_on_not_finite(self):
        M = gamma([[[0, 3, 3, 1]]])  # presentation by omega_1
        assert M.euler_analytic(TRIV, 1).status is EulerStatus.NOT_FINITE
        assert M.euler_direct(TRIV, 1).status is EulerStatus.NOT_FINITE


class TestRouteAgreement:
    def test_random_corpus(self):
        rng = random.Random(20)
        for p in (3, 5):
            ctx = PadicContext(p, 32)
            chars = [
                Character.from_int(ctx, u)
                for u in (1, 1 + p, 1 + 2 * p, 1 + p * p, 1 + p + p * p)
            ]
            for _ in range(8):
                M = random_gamma_module(rng, ctx)
                for rho in chars:
                    for n in range(3):
                        rd = M.euler_direct(rho, n)
                        ra = M.euler_analytic(rho, n)
                        assert rd.status is ra.status
                        assert rd.chi_exponent == ra.chi_exponent
                        # not finite exactly when Phi_(p^k)(u(1+X)) divides det F, some k <= n
                        bad = gamma_not_finite(M.exact_entries, rho.u_exact, p, n)
                        assert (rd.status is EulerStatus.NOT_FINITE) == bad, (M.exact_entries, n)

    def test_direct_sum_multiplicativity(self):
        rng = random.Random(21)
        for _ in range(6):
            A = random_gamma_module(rng, CTX, d_max=2)
            B = random_gamma_module(rng, CTX, d_max=2)
            zero = [0]
            block = [
                list(row) + [zero] * B.d
                for row in (list(r) for r in _ints(A))
            ] + [
                [zero] * A.d + list(row)
                for row in (list(r) for r in _ints(B))
            ]
            C = gamma(block)
            for u in (1, 4):
                rho = Character.from_int(CTX, u)
                for n in range(2):
                    ra, rb, rc = (
                        A.euler_direct(rho, n),
                        B.euler_direct(rho, n),
                        C.euler_direct(rho, n),
                    )
                    if ra.exists and rb.exists:
                        assert rc.exists
                        assert rc.chi_exponent == ra.chi_exponent + rb.chi_exponent

    def test_twist_of_twist(self):
        rng = random.Random(22)
        for _ in range(6):
            M = random_gamma_module(rng, CTX, d_max=2)
            u1, u2 = 4, 7
            r1 = Character.from_int(CTX, u1)
            r12 = Character.from_int(CTX, u1 * u2)
            twisted = twisted_module(M, r1)
            r2 = Character.from_int(CTX, u2)
            for n in range(2):
                a = M.euler_direct(r12, n)
                b = twisted.euler_direct(r2, n)
                assert a.status is b.status or (
                    # the twisted residues lift to other integers, so NotFinite degrades
                    a.status is EulerStatus.NOT_FINITE
                    and b.status is EulerStatus.INDETERMINATE
                )
                if a.exists:
                    assert a.chi_exponent == b.chi_exponent

    def test_twisted_characteristic_element(self):
        # the characteristic element of the twisted presentation equals the
        # twisted characteristic element, up to Weierstrass normalization
        rng = random.Random(23)
        for _ in range(8):
            M = random_gamma_module(rng, CTX, d_max=2)
            rho = Character.from_int(CTX, 1 + 3 * rng.randint(1, 9))
            twisted = twisted_module(M, rho)
            w1 = weierstrass_prepare(twisted.det)
            w2 = weierstrass_prepare(twist_series(M.characteristic_element(), rho, "inverse"))
            assert (w1.lam, w1.mu) == (w2.lam, w2.mu)
            assert w1.distinguished.coeffs == w2.distinguished.coeffs


def _ints(module):
    return module.exact_entries


def twisted_module(M, rho):
    """M twisted by rho^-1: its entries' twisted residues mod p^N, read as integers."""
    ctx = M.context
    return GammaModule.from_int_matrix(ctx, [
        [twist_series(PowerSeries.from_ints(ctx, "X", e), rho, "inverse").coeffs for e in row]
        for row in M.exact_entries
    ])


class TestFindTwist:
    def test_lambda_over_x(self):
        # oracle: v3(u^{-p^n} - 1) is finite for every u != 1 in 1+3Z_3
        rho, rep = find_twist(gamma([[[0, 1]]]), n_max=1)
        assert rep.accepted_u == 4
        assert [o.chi_exponent for o in rep.candidates[-1].outcomes] == [1, 2]

    def test_p_primary_module(self):
        # chi(Gamma_n) = 3^{p^n} for the module killed by 3, any twist
        rho, rep = find_twist(gamma([[[3]]]), n_max=1)
        assert rep.accepted_u == 4
        assert [o.chi_exponent for o in rep.candidates[0].outcomes] == [1, 3]

    def test_omega_one_module(self):
        M = gamma([[[0, 3, 3, 1]]])
        assert M.euler_direct(TRIV, 1).status is EulerStatus.NOT_FINITE
        rho, rep = find_twist(M, n_max=1)
        assert rep.accepted_u == 4

    def test_seeded_candidate_order(self):
        M = gamma([[[3]]])  # every candidate certifies
        _, rep_plain = find_twist(M, n_max=1, budget=10)
        assert rep_plain.accepted_u == 4

    def test_budget_exhausted_carries_report(self):
        M = gamma([[[0, 1]]])
        ctx1 = PadicContext(3, 1)
        M1 = M.with_precision(1)
        # at N=1 every exponent >= 1 is indeterminate, so nothing certifies
        with pytest.raises(BudgetExhaustedError) as exc:
            find_twist(M1, n_max=1, budget=3)
        assert exc.value.report.accepted_u is None
        assert len(exc.value.report.candidates) == 3
