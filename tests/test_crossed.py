import json
import random
import time
from math import comb
from pathlib import Path

import pytest

from iwalab import (
    Character,
    CrossedModule,
    EulerStatus,
    GammaModule,
    Level,
    PadicContext,
    PowerSeries,
    SizeCapExceededError,
    ValidationError,
    find_twist_crossed,
)
from iwalab import _polyops as po
from iwalab import crossed as crossed_layer
from iwalab import exactint, kernels
from iwalab.cli import main
from iwalab.corpus import admissible_levels, crossed_corpus, random_crossed_module

from oracles import (
    akashi_value_exponent,
    berkowitz_mod,
    cocycle_residues,
    cyclotomic_rows_circulant,
    det_int,
    elementary,
    gamma_power_matrix,
    group_ring_rows_lex,
    h0_infinite_block_circulant,
    mat_mul,
    poly_reduce_mod_int,
    sigma_power,
)

CTX = PadicContext(3, 32)
TRIV = Character.trivial(CTX)
U4 = Character.from_int(CTX, 4)


def crossed(kappa, entries, ctx=CTX):
    return CrossedModule.from_int_data(ctx, kappa, entries)


def trivial_module(ctx=CTX):
    return crossed(4, [[[1]]], ctx)


def write_crossed_problem(tmp_path, kappa, A, level, **extra):
    """A crossed problem file at p = 3, N = 64 for one level; `extra` adds keys."""
    problem = {"kind": "crossed", "p": "3", "d": len(A), "kappa": str(kappa),
               "A": [[[str(c) for c in e] for e in row] for row in A],
               "levels": [list(level)], "precision": 64, **extra}
    inp = tmp_path / "problem.json"
    inp.write_text(json.dumps(problem))
    return inp


class TestConstruction:
    def test_kappa_must_be_pro_p(self):
        with pytest.raises(ValidationError):
            crossed(2, [[[1]]])

    def test_action_determinant_must_be_unit(self):
        with pytest.raises(ValidationError):
            crossed(4, [[[0, 1]]])  # A = (Y): det constant term 0

    def test_action_determinant_divisible_by_p_rejected(self):
        # det A(0) = 4 - 1 = 3: the Y-terms cannot rescue a non-unit constant term
        with pytest.raises(ValidationError) as exc:
            crossed(4, [[[1, 1], [1]], [[1], [4, 0, 1]]])
        assert exc.value.invariant == "unit-determinant"

    def test_unit_determinant_off_diagonal(self):
        # det = 1 - Y^2: constant term 1, fine
        crossed(4, [[[1], [0, 1]], [[0, 1], [1]]])

    def test_empty_entry_rejected(self):
        with pytest.raises(ValidationError) as exc:
            crossed(4, [[[1], []], [[0], [1]]])
        assert exc.value.invariant == "nonempty"

    def test_holds_the_exact_data(self):
        X = crossed(31, [[[1, -40]]], PadicContext(3, 2))
        assert X.kappa_exact == 31
        assert X.exact_entries == (((1, -40),),)
        assert X.with_precision(64).exact_entries == X.exact_entries


class TestLevels:
    def test_normality_enforced(self):
        X = trivial_module()
        with pytest.raises(ValidationError):
            X.check_level(Level(0, 2))  # m = 2 > 0 + v3(3) = 1

    def test_normality_kappa_one(self):
        X = crossed(1, [[[1]]])
        X.check_level(Level(0, 5))  # abelian: every level is normal

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            Level(-1, 0)


class TestSigmaPower:
    def test_identity(self):
        X = trivial_module()
        f = PowerSeries.from_ints(CTX, "Y", [0, 1])
        assert sigma_power(X, f, 0, 1).coeffs[:2] == (0, 1)

    def test_kappa_four_level_one(self):
        # oracle: expand (1+Y)^4 - 1 and reduce by omega_1 = Y^3+3Y^2+3Y over Z
        want = poly_reduce_mod_int([0, 4, 6, 4, 1], [0, 3, 3, 1])
        X = trivial_module()
        f = PowerSeries.from_ints(CTX, "Y", [0, 1])
        got = sigma_power(X, f, 1, 1)
        q = CTX.modulus
        assert list(got.coeffs) == [c % q for c in want + [0] * (3 - len(want))]

    def test_power_pn_trivial_under_normality(self):
        # sigma^(p^n) acts trivially once v_p(kappa^(p^n) - 1) >= m
        X = trivial_module()
        f = PowerSeries.from_ints(CTX, "Y", [0, 1])
        got = sigma_power(X, f, 3, 2)  # v3(4^3 - 1) = 2 >= m = 2
        want = [0, 1] + [0] * 7
        assert list(got.coeffs) == want

    @pytest.mark.parametrize("p, kappa", [(3, 4), (5, 6)])
    @pytest.mark.parametrize("k", [2, 5])
    def test_random_f_matches_horner(self, p, kappa, k):
        # oracle: Horner's rule for f(s) over Z, s = (1+Y)^e - 1 with e = kappa^k mod p^2,
        # then the remainder by omega_2 = (1+Y)^(p^2) - 1
        import sympy

        ctx = PadicContext(p, 20)
        q = ctx.modulus
        pm = p * p
        rng = random.Random(10 * p + k)
        f = [rng.randrange(100) for _ in range(2 * pm + 1)]
        Y = sympy.symbols("Y")
        s = sympy.Poly((1 + Y) ** pow(kappa, k, pm) - 1, Y)
        acc = sympy.Poly(0, Y)
        for c in reversed(f):
            acc = acc * s + c
        rem = acc.rem(sympy.Poly((1 + Y) ** pm - 1, Y))
        want = [int(c) % q for c in reversed(rem.all_coeffs())]
        X = crossed(kappa, [[[1]]], ctx)
        got = sigma_power(X, PowerSeries.from_ints(ctx, "Y", f), k, 2)
        assert list(got.coeffs) == want + [0] * (pm - len(want))


class TestGammaPowerMatrix:
    def test_trivial_action_gives_identity(self):
        X = trivial_module()
        for lv in (Level(0, 0), Level(1, 1), Level(2, 1)):
            rows = po.block_circulant(X._cocycle(lv))
            n = len(rows)
            assert all(rows[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))

    def test_one_plus_y_level_one_one(self):
        # oracle: exponent 16+4+1 = 21 = 0 mod 3, so the cocycle is (1+Y)^0 = 1
        assert (16 + 4 + 1) % 3 == 0
        X = crossed(4, [[[1, 1]]])
        rows = po.block_circulant(X._cocycle(Level(1, 1)))
        assert all(rows[i][j] == (1 if i == j else 0) for i in range(3) for j in range(3))

    def test_one_plus_y_level_one_two(self):
        # oracle: 21 mod 9 = 3, so the cocycle is h^3 with h = 1+Y; in the
        # basis 1, h, ..., h^8 of Z_3[h]/(h^9 - 1) B is the cyclic shift by 3
        X = crossed(4, [[[1, 1]]])
        rows = po.block_circulant(X._cocycle(Level(1, 2)))
        assert rows == [[1 if c == (r + 3) % 9 else 0 for c in range(9)] for r in range(9)]

    def test_one_plus_y_level_one_two_y_basis(self):
        # oracle: the public matrix is the 9x9 multiplication matrix of (1+Y)^3
        # in the basis 1, Y, ..., Y^8 modulo omega_2, built by integer reduction
        from iwalab._polyops import omega_coeffs

        q = CTX.modulus
        w2 = omega_coeffs(3, 2)
        cube = [1, 3, 3, 1]  # (1+Y)^3
        want = []
        for r in range(9):
            shifted = [0] * r + cube
            want.append([c % q for c in poly_reduce_mod_int(shifted, w2) + [0] * 9][:9])
        X = crossed(4, [[[1, 1]]])
        rows = gamma_power_matrix(X, Level(1, 2))
        assert [[v.residue for v in row] for row in rows] == want

    def test_public_wrapper_returns_padics(self):
        X = trivial_module()
        B = gamma_power_matrix(X, Level(0, 1))
        assert B[0][0].residue == 1


class TestCocycle:
    """The cocycle product is exact over Z, one per level, shared across precisions."""

    def test_reduction_matches_residue_products(self):
        for p in (3, 5):
            for X in crossed_corpus(70 + p, 4, p, N=16):
                q = X.context.modulus
                for lv in admissible_levels(X, 2, 2, rank_cap=54):
                    got = [[[v % q for v in e] for e in row] for row in X._cocycle(lv)]
                    assert got == cocycle_residues(X, lv), (X.exact_entries, lv)

    def test_re_embedding_shares_the_cocycle(self):
        X = crossed(4, [[[1, 1], [3]], [[0, 2], [1, 0, 1]]])
        for lv in (Level(1, 1), Level(2, 1)):
            assert X.with_precision(2 * CTX.N)._cocycle(lv) is X._cocycle(lv)

    def test_escalation_builds_each_cocycle_once(self, monkeypatch, tmp_path, capsys):
        # --precision 1 escalates through N = 1, 2, ..., 32; each of the two
        # levels (1,1) and (1,2) takes p^n - 1 = 2 products, once
        calls = []
        inner = crossed_layer._cyclic_matmul

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(crossed_layer, "_cyclic_matmul", counted)
        problem = Path(__file__).resolve().parents[1] / "problems" / "crossed_trivial.json"
        code = main(["euler", "--precision", "1", "--input", str(problem),
                     "--out", str(tmp_path / "r.json")])
        capsys.readouterr()
        assert code == 0
        assert len(calls) == 4

    @pytest.mark.parametrize("p, n_max", [(3, 4), (5, 3)])
    def test_doubling_matches_linear_products(self, p, n_max):
        # C_(p^n) from C_(p^(n-1)) by p - 1 twisted products, against the p^n - 1
        # products sigma^k(A) C, exact over Z and mod p^N
        ctx = PadicContext(p, 16)
        rng = random.Random(140 + p)
        modules = [crossed(1 + p, [[[1, 1], [0, 2]], [[p], [1, 0, 1]]], ctx)]
        modules += [random_crossed_module(rng, ctx) for _ in range(2)]
        for X in modules:
            for n in range(n_max + 1):
                for m in (0, 1):
                    lv = X.check_level(Level(n, m))
                    got = X._cocycle(lv)
                    assert got == cocycle_residues(X, lv, exact=True), (X.exact_entries, lv)
                    q = ctx.modulus
                    reduced = [[[v % q for v in e] for e in row] for row in got]
                    assert reduced == cocycle_residues(X, lv)

    @pytest.mark.parametrize("p, n, m", [(3, 4, 1), (3, 2, 3), (5, 3, 0), (5, 1, 2)])
    def test_level_n_takes_n_times_p_minus_one_products(self, monkeypatch, p, n, m):
        calls = []
        inner = crossed_layer._cyclic_matmul

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(crossed_layer, "_cyclic_matmul", counted)
        X = crossed(1 + p * p, [[[1, 1], [p]], [[0, 2], [1, 0, 1]]], PadicContext(p, 16))
        X._cocycle(Level(n, m))
        assert len(calls) == n * (p - 1)
        X.with_precision(32)._cocycle(Level(n, m))
        assert len(calls) == n * (p - 1)


class TestAkashiEvaluation:
    """euler_akashi is the exact Akashi value at the twist, deciding when its v_p is below N."""

    @staticmethod
    def check(X, rho, lv):
        got = X.euler_akashi(rho, lv)
        want = akashi_value_exponent(X, rho, lv)
        if want is None:
            infinite = h0_infinite_block_circulant(X, rho, lv)
            status = EulerStatus.NOT_FINITE if infinite else EulerStatus.INDETERMINATE
            assert got.status is status, (X.exact_entries, lv, rho.u_exact)
        else:
            assert got.exists and got.chi_exponent == want, (X.exact_entries, lv, rho.u_exact, got)
        return got, want

    @pytest.mark.parametrize("N", [64, 512])
    def test_matches_series_evaluation_on_the_corpus(self, N):
        seen = set()
        for p in (3, 5):
            for X in crossed_corpus(150 + p, 8, p, N=N):
                for lv in admissible_levels(X, 2, 2, rank_cap=162):
                    for u in (1, 1 + p, 1 + p * p):
                        got, _ = self.check(X, Character.from_int(X.context, u), lv)
                        seen.add(got.status)
        assert EulerStatus.EXISTS in seen and EulerStatus.NOT_FINITE in seen

    @pytest.mark.parametrize("N", [64, 512])
    def test_near_identity_past_the_word_precision(self, N):
        # A = I + 3 C0 + Y C1 at level (2, 2): the value's valuation often reaches
        # the word precision 18, where a residue mod 3^18 would not decide
        ctx = PadicContext(3, N)
        rng = random.Random(160)
        k = kernels.word_precision(3, N)
        past = 0
        for _ in range(12):
            A = [[[(1 if i == j else 0) + 3 * rng.randint(-2, 2), rng.randint(-3, 3)]
                  for j in range(2)] for i in range(2)]
            X = crossed(4, A, ctx)
            for u in (1, 4, 10):
                got, want = self.check(X, Character.from_int(ctx, u), Level(2, 2))
                past += want is not None and want >= k
        assert past

    def test_not_finite_trivial_action(self):
        X = trivial_module()
        for lv in (Level(0, 0), Level(1, 1), Level(2, 1)):
            got, want = self.check(X, TRIV, lv)
            assert want is None and got.status is EulerStatus.NOT_FINITE

    def test_hessenberg_forms_cached_per_precision_and_shared(self):
        # the exact value replaced the Hessenberg forms per word precision: it is
        # cached by (u, n, m) alone, and a re-embedding shares the cache and the value
        X = crossed(4, [[[1, 1], [3]], [[0, 2], [1, 0, 1]]], PadicContext(3, 64))
        lv = Level(1, 1)
        got = X.euler_akashi(U4, lv)
        Y = X.with_precision(128)
        assert Y._akashi_cache is X._akashi_cache
        assert list(X._akashi_cache) == [(4, 1, 1)]
        assert Y.euler_akashi(U4, lv) == got
        assert list(Y._akashi_cache) == [(4, 1, 1)]

    def test_euler_never_expands_the_series(self, monkeypatch, tmp_path, capsys):
        def refuse(*args):
            raise AssertionError("the Euler routes evaluate the Akashi polynomial at a point")

        monkeypatch.setattr(CrossedModule, "akashi_series", refuse)
        monkeypatch.setattr(kernels, "charpoly_mod", refuse)
        problem = Path(__file__).resolve().parents[1] / "problems" / "crossed_trivial.json"
        code = main(["euler", "--precision", "1", "--input", str(problem),
                     "--out", str(tmp_path / "r.json")])
        capsys.readouterr()
        assert code == 0
        tasks = json.loads((tmp_path / "r.json").read_text())["tasks"]
        assert all(task["routes_agree"] for task in tasks)


class TestNotFiniteCertificate:
    """One exact Akashi value per (u, level), whatever the route or precision.

    The value is one `exactint.poly_mat_det` over Z[h], shared by
    `euler_reduced` and `euler_akashi`, by re-embeddings at other precisions
    and so by CLI escalation; the group-ring route certifies on its own.
    """

    @staticmethod
    def count(monkeypatch, module, name):
        calls = []
        inner = getattr(module, name)

        def counted(rows):
            calls.append(len(rows))
            return inner(rows)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_not_finite_level_across_routes_and_precisions(self, monkeypatch):
        dets = self.count(monkeypatch, exactint, "poly_mat_det")
        X = trivial_module(PadicContext(3, 64))
        lv = Level(1, 1)
        for M in (X, X.with_precision(128), X.with_precision(128).with_precision(256)):
            for u, status in ((1, EulerStatus.NOT_FINITE), (4, EulerStatus.EXISTS)):
                rho = Character.from_int(M.context, u)
                assert M.euler_reduced(rho, lv).status is status
                assert M.euler_akashi(rho, lv).status is status
        # one evaluation each for u = 1 and u = 4 (the staged route decides u = 4 alone)
        assert dets == [1, 1]
        # the group-ring route certifies on its own, every time
        bareiss = self.count(monkeypatch, kernels, "bareiss_det")
        triv = Character.from_int(X.context, 1)
        assert X.group_ring_oracle(triv, lv).status is EulerStatus.NOT_FINITE
        assert X.group_ring_oracle(triv, lv).status is EulerStatus.NOT_FINITE
        assert len(bareiss) == 2 and dets == [1, 1]

    def test_escalation_certifies_each_undecided_task_once(self, monkeypatch, tmp_path, capsys):
        # --precision 1 escalates u = 4 through N = 1, 2, 4, 8 while the Akashi value
        # (valuation 2 p^m) is not below N; u = 1 is not finite at once.  Each of
        # the 4 tasks takes one evaluation, shared by both routes and every N.
        dets = self.count(monkeypatch, exactint, "poly_mat_det")
        problem = Path(__file__).resolve().parents[1] / "problems" / "crossed_trivial.json"
        code = main(["euler", "--precision", "1", "--input", str(problem),
                     "--out", str(tmp_path / "r.json")])
        capsys.readouterr()
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert [t["status"] for t in report["tasks"]] == ["not-finite-detected"] * 2 + ["exists"] * 2
        assert len(report["escalations"]) >= 4
        assert dets == [1] * 4

    def test_blocks_and_verdicts_match_the_block_circulant(self):
        # a zero exact value against the rank-d p^m determinant, and each block
        # against the one built from whole circulants, not-finite levels included
        verdicts = []
        for seed in (101, 113, 115, 117, 123):
            for p in (3, 5, 7):
                for X in crossed_corpus(seed, 4, p):
                    q = X.context.modulus
                    for lv in admissible_levels(X, 2, 2, rank_cap=162):
                        C = X._cocycle(lv)
                        for k in range(lv.m + 1):
                            rows = crossed_layer._cyclotomic_rows(C, p, k)
                            assert [[v % q for v in row] for row in rows] == \
                                cyclotomic_rows_circulant(C, p, k, q)
                        for u in (1, 1 + p, 1 + 2 * p):
                            rho = Character.from_int(X.context, u)
                            got = X._akashi_exponent(rho, lv) is None
                            assert got == h0_infinite_block_circulant(X, rho, lv), (
                                X.exact_entries, X.kappa_exact, lv, u)
                            assert u == 1 or not got, (X.exact_entries, lv, u)  # finite at u != 1
                            verdicts.append(got)
        assert len(verdicts) > 1000 and 30 < sum(verdicts) < len(verdicts)

    def test_level_one_four_in_under_1_5_seconds(self):
        # rank 162 as one determinant; the blocks have ranks 2, 4, 12, 36 and 108
        X = crossed(TestAkashiThroughTheCli.KAPPA, TestAkashiThroughTheCli.A, PadicContext(3, 64))
        lv = Level(1, 4)
        X._cocycle(lv)
        t0 = time.perf_counter()
        assert X._akashi_exponent(Character.from_int(X.context, 4), lv) is not None
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.5, elapsed

    def test_large_character_at_level_five_zero_in_under_1_5_seconds(self):
        # at m = 0 the cocycle is A(0)^(p^n) = [[1, 3^(n+1)], [0, 1]], so the value
        # is (u^(p^n) - 1)^2, of v_p 2 (2000 + 5) for u = 1 + 3^2000 at n = 5: a
        # 2.3-million-bit integer whose valuation a division per unit would crawl through
        X = crossed(4, TestAkashiThroughTheCli.A, PadicContext(3, 64))
        lv = Level(5, 0)
        X._cocycle(lv)
        t0 = time.perf_counter()
        assert X._akashi_exponent(Character.from_int(X.context, 1 + 3**2000), lv) == 4010
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.5, elapsed


class TestExactAkashiValue:
    """v_p of the exact Akashi value is the staged route's chi, escalated until it decides."""

    @staticmethod
    def staged(X, u, lv, cap=1024):
        M = X
        while True:
            r = M.euler_reduced(Character.from_int(M.context, u), lv)
            if r.status is not EulerStatus.INDETERMINATE or 2 * M.context.N > cap:
                return r
            M = M.with_precision(2 * M.context.N)

    def check(self, X, u, lv):
        chi = X._akashi_exponent(Character.from_int(X.context, u), lv)
        r = self.staged(X, u, lv)
        assert u == 1 or chi is not None, (X.exact_entries, lv, u)  # finite at u != 1
        if chi is None:
            assert r.status is EulerStatus.NOT_FINITE, (X.exact_entries, lv, u)
        else:
            assert r.exists and r.chi_exponent == chi, (X.exact_entries, lv, u, r)
        return chi

    def test_corpus(self):
        values = []
        for seed in (101, 113, 115, 117, 123):
            for p in (3, 5, 7):
                for X in crossed_corpus(seed, 4, p):
                    for lv in admissible_levels(X, 2, 2, rank_cap=162):
                        for u in (1, 1 + p, 1 + 2 * p):
                            values.append(self.check(X, u, lv))
        nones = values.count(None)
        assert len(values) > 1000 and 30 < nones < len(values)

    @pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
    def test_near_identity_at_large_primes(self, p):
        # A = I + p R + Y S is I mod (p, Y): chi > 0 at every level, or not finite
        ctx = PadicContext(p, 64)
        rng = random.Random(240 + p)
        chis = []
        for _ in range(3):
            A = [[[(i == j) + p * rng.randint(-2, 2)]
                  + [rng.randint(-5, 5) for _ in range(rng.randint(0, 2))]
                  for j in range(2)] for i in range(2)]
            X = crossed(1 + p, A, ctx)
            for lv in (Level(0, 1), Level(1, 0), Level(1, 1), Level(2, 0)):
                for u in (1, 1 + p, 1 + 2 * p):
                    chis.append(self.check(X, u, lv))
        assert all(c is None or c > 0 for c in chis) and any(chis)

    def test_above_the_precision_is_indeterminate(self):
        # chi = 219 is above N = 64: the Akashi route is indeterminate there, as the
        # value mod 3^64 is, and the staged route decides
        X = crossed(28, [[[1, 3]]], PadicContext(3, 64))
        lv, rho = Level(1, 4), Character.from_int(X.context, 4)
        assert X.euler_akashi(rho, lv).status is EulerStatus.INDETERMINATE
        assert X._akashi_exponent(rho, lv) == 219
        r = X.euler_reduced(rho, lv)
        assert r.exists and r.chi_exponent == 219


class TestAkashiSeries:
    def test_trivial_action_level_one_one(self):
        # oracle: charpoly of the identity, ((1+X)-1)^3 = X^3
        ak = trivial_module().akashi_series(Level(1, 1))
        assert ak.exact_degree == 3
        assert ak.coeffs == (0, 0, 0, 1)

    def test_constant_unit_level_zero(self):
        ak = crossed(4, [[[4]]]).akashi_series(Level(0, 0))
        assert ak.exact_degree == 1
        assert ak.coeffs == ((1 - 4) % CTX.modulus, 1)

    def test_block_multiplicativity_constant(self):
        a1, a2 = 4, 7
        ak = crossed(4, [[[a1], [0]], [[0], [a2]]]).akashi_series(Level(0, 0))
        one = PowerSeries.from_ints(CTX, "X", [1 - a1, 1])
        two = PowerSeries.from_ints(CTX, "X", [1 - a2, 1])
        assert ak.coeffs == (one * two).coeffs

    def test_monic_of_degree_d_pm(self):
        rng = random.Random(3)
        X = random_crossed_module(rng, CTX)
        for lv in admissible_levels(X, 1, 1):
            ak = X.akashi_series(lv)
            assert ak.exact_degree == X.d * 3**lv.m
            assert ak.coeffs[-1] == 1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_cyclotomic_product_equals_full_charpoly(self, p):
        # oracle: Berkowitz on the full h-basis level matrix, then t -> 1 + X
        from iwalab._polyops import substitute_linear

        ctx = PadicContext(p, 40)
        q = ctx.modulus
        rng = random.Random(40 + p)
        seen = set()
        for _ in range(4):
            X = random_crossed_module(rng, ctx, d_max=1 if p == 7 else 2)
            # kappa = 1 + p^2 reaches m = n + 2
            X = crossed(rng.choice([X.kappa_exact, 1 + p * p]), X.exact_entries, ctx)
            for lv in admissible_levels(X, 2, 3, rank_cap=54):
                cp = berkowitz_mod(po.block_circulant(X._cocycle(lv)), q)
                assert list(X.akashi_series(lv).coeffs) == substitute_linear(cp, 1, 1, q)
                seen.add(lv.m)
        assert max(seen) >= 2

    def test_constant_matrix_block_embedding(self):
        # for constant A the level matrix is A^(p^n) tensor the rank-p^m identity,
        # so the Akashi polynomial is det((1+X)I_d - A^(p^n)) to the p^m-th power
        A = [[[2], [3]], [[1], [4]]]
        X = crossed(4, A)
        lv = Level(1, 1)
        ak = X.akashi_series(lv)
        q = CTX.modulus
        m = [[2, 3], [1, 4]]

        def matmul(a, b):
            return [
                [sum(a[i][k] * b[k][j] for k in range(2)) % q for j in range(2)]
                for i in range(2)
            ]

        cube = matmul(matmul(m, m), m)
        # det((1+X)I - cube) expanded symbolically
        t0, t1 = cube[0][0], cube[1][1]
        det = [
            (t0 * t1 - cube[0][1] * cube[1][0]) % q,
            (-(t0 + t1)) % q,
            1,
        ]
        # char poly in (1+X): substitute and cube
        base = [1, 1]
        poly = po.padd(
            po.padd([det[0]], po.pmul([det[1]], base, q), q),
            po.pmul(base, po.pmul([det[2]], base, q), q),
            q,
        )
        want = po.pmul(po.pmul(poly, poly, q), poly, q)
        assert ak.coeffs == tuple(want)


class TestAkashiThroughTheCli:
    """The Akashi series at m = 3, 4 (blocks of rank 36 and 108), d = 2, p = 3, N = 64."""

    KAPPA = 1
    A = [[[1, 1], [3]], [[0, 3], [1, 0, 1]]]  # [[1 + Y, 3], [3Y, 1 + Y^2]]

    def run_akashi(self, tmp_path, level):
        inp = write_crossed_problem(tmp_path, self.KAPPA, self.A, level)
        out = tmp_path / "akashi.report.json"
        t0 = time.perf_counter()
        code = main(["akashi", "--input", str(inp), "--out", str(out)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        (task,) = json.loads(out.read_text())["tasks"]
        return [int(c) for c in task["coefficients"]], elapsed

    def test_level_zero_four_in_under_1_5_seconds(self, tmp_path, capsys):
        coeffs, elapsed = self.run_akashi(tmp_path, (0, 4))
        capsys.readouterr()
        assert len(coeffs) == 2 * 81 + 1 and coeffs[-1] == 1
        assert elapsed < 1.5, elapsed

    def test_level_zero_three_is_the_full_charpoly(self, tmp_path, capsys):
        from iwalab._polyops import substitute_linear

        coeffs, _ = self.run_akashi(tmp_path, (0, 3))
        printed = capsys.readouterr().out
        assert str([str(c) for c in coeffs]) in printed
        ctx = PadicContext(3, 64)
        q = ctx.modulus
        rows = po.block_circulant(crossed(self.KAPPA, self.A, ctx)._cocycle(Level(0, 3)))
        assert len(rows) == 54
        cp = berkowitz_mod(rows, q)
        assert coeffs == substitute_linear(cp, 1, 1, q)


class TestEulerThroughTheCli:
    """`iwalab euler` at N = 64, u = 4, under a time bound, on large crossed levels.

    Entries near 3^70 at level (2,3) (chi = 67 > N, so the run escalates), and
    the d = 2 module of `TestAkashiThroughTheCli` at (2,4) (chi = 103) and (0,5).
    """

    P70 = 3**70
    NEAR_3_70 = [[[1 + 2 * P70, 5, -7], [P70, 1, 2]], [[3, -P70, 1], [1 + P70, 4, 2]]]

    @pytest.mark.parametrize("kappa, A, level", [
        (4, NEAR_3_70, (2, 3)),
        (TestAkashiThroughTheCli.KAPPA, TestAkashiThroughTheCli.A, (2, 4)),
        (TestAkashiThroughTheCli.KAPPA, TestAkashiThroughTheCli.A, (0, 5)),
    ], ids=["near-3^70-2-3", "2-4", "0-5"])
    def test_in_under_2_seconds(self, tmp_path, capsys, kappa, A, level):
        inp = write_crossed_problem(tmp_path, kappa, A, level, characters=["4"])
        out = tmp_path / "euler.report.json"
        t0 = time.perf_counter()
        code = main(["euler", "--input", str(inp), "--out", str(out)])
        elapsed = time.perf_counter() - t0
        capsys.readouterr()
        assert code == 0
        (task,) = json.loads(out.read_text())["tasks"]
        assert task["status"] == "exists" and task["routes_agree"], task
        assert elapsed < 2, elapsed


def group_ring_cases(levels):
    """(module, level, u) on random modules at p = 3 and 5, the trivial character included.

    The first module at each p has det(g I - A) = 0 at level (1, 1).
    """
    for p in (3, 5):
        ctx = PadicContext(p, 64)
        rng = random.Random(50 + p)
        singular = crossed(1 + p, [[[1, 1], [0, 2]], [[p], [1, 0, 1]]], ctx)
        for X in [singular] + [random_crossed_module(rng, ctx) for _ in range(4)]:
            for lv in levels(X):
                for u in (1, 1 + p, 1 + p * p):
                    yield X, lv, u


class TestGroupRingRows:
    def test_unit_diagonal_and_zero_diagonal_blocks(self):
        # rows and columns come in p^n blocks of size d*p^m; g I puts I on the
        # diagonal blocks and u A sits only in block column a - 1 of row block a
        seen = set()
        for X, lv, u in group_ring_cases(lambda X: admissible_levels(X, 2, 1, rank_cap=54)):
            if lv.n == 0:
                continue
            rows = X._group_ring_rows(Character.from_int(X.context, u), lv)
            pn, size = X.context.p ** lv.n, X.d * X.context.p ** lv.m
            for r, row in enumerate(rows):
                for c, v in enumerate(row):
                    a, b = r // size, c // size
                    if b == a:
                        assert v == (r == c), (lv, u, r, c)
                    elif b != (a - 1) % pn:
                        assert v == 0, (lv, u, r, c)
            seen.add((X.context.p, lv.n))
        assert {(3, 1), (3, 2), (5, 1)} <= seen

    def test_columns_permute_the_lexicographic_layout(self):
        # row e_i g^a h^b moves from i p^(n+m) + a p^m + b to (a d + i) p^m + b, and
        # column e_j g^a h^b to the index of row e_j g^(a-1) h^(b kappa)
        for X, lv, u in group_ring_cases(lambda X: admissible_levels(X, 1, 1)):
            p, d, kappa = X.context.p, X.d, X.kappa_exact
            pn, pm = p**lv.n, p**lv.m
            new = X._group_ring_rows(Character.from_int(X.context, u), lv)
            old = group_ring_rows_lex(kappa, X.exact_entries, u, p, lv.n, lv.m)
            row_at = [(a * d + i) * pm + b for i in range(d) for a in range(pn) for b in range(pm)]
            col_at = [((a - 1) % pn * d + j) * pm + b * kappa % pm
                      for j in range(d) for a in range(pn) for b in range(pm)]
            assert [[new[row_at[r]][col_at[c]] for c in range(len(old))]
                    for r in range(len(old))] == old

    def test_verdicts_match_lexicographic_layout(self):
        # the oracle's verdict against the lexicographic matrix's Smith exponents
        # mod p^64, and its NotFinite against the exact determinant
        statuses = set()
        for X, lv, u in group_ring_cases(lambda X: admissible_levels(X, 1, 1, rank_cap=50)):
            p = X.context.p
            old = group_ring_rows_lex(X.kappa_exact, X.exact_entries, u, p, lv.n, lv.m)
            q = p**64
            exps = kernels.smith_exponents([[v % q for v in r] for r in old], p, 64)
            res = X.group_ring_oracle(Character.from_int(X.context, u), lv)
            statuses.add(res.status)
            if -1 in exps:
                assert res.status is (EulerStatus.NOT_FINITE if det_int(old) == 0
                                      else EulerStatus.INDETERMINATE), (lv, u)
            else:
                assert res.exists and res.h0_exponent == sum(exps), (lv, u)
        assert {EulerStatus.EXISTS, EulerStatus.NOT_FINITE} <= statuses


class TestEulerRoutes:
    def test_golden_three_to_the_six(self):
        X = trivial_module()
        lvl = Level(1, 1)
        for route in (X.euler_reduced, X.euler_akashi, X.group_ring_oracle):
            r = route(U4, lvl)
            assert r.exists and r.chi_exponent == 6
            assert r.h1_exponent == 0

    def test_golden_trivial_character_not_finite(self):
        X = trivial_module()
        lvl = Level(1, 1)
        for route in (X.euler_reduced, X.euler_akashi, X.group_ring_oracle):
            assert route(TRIV, lvl).status is EulerStatus.NOT_FINITE

    def test_one_by_one_level_zero(self):
        X = trivial_module()
        r = X.euler_reduced(U4, Level(0, 0))
        assert r.exists and r.chi_exponent == 1

    def test_akashi_route_constant_action(self):
        # oracle: 1x1 direct route C = (u*c - 1); v_p(uc - 1) = v_p(u^-1 - c)
        X = crossed(4, [[[4]]])
        r1 = X.euler_reduced(U4, Level(0, 0))
        r2 = X.euler_akashi(U4, Level(0, 0))
        want = 2  # v3(4*4 - 1) = v3(15)? 15 = 3*5 -> 1... computed below
        import sympy

        want = sympy.multiplicity(3, 4 * 4 - 1)
        assert r1.chi_exponent == want == r2.chi_exponent

    def test_modular_group_of_order_27(self):
        # level (1,2) on the trivial rank-1 module: all routes give 18
        # (the regular representation's g-eigenvalues are cube roots of unity,
        # each with multiplicity 9, so det = (u^3 - 1)^9 up to sign)
        X = trivial_module()
        lvl = Level(1, 2)
        vals = [
            X.euler_reduced(U4, lvl).chi_exponent,
            X.euler_akashi(U4, lvl).chi_exponent,
            X.group_ring_oracle(U4, lvl).chi_exponent,
        ]
        assert vals == [18, 18, 18]

    def test_level_two_two_gives_27(self):
        X = trivial_module()
        r = X.euler_reduced(U4, Level(2, 2))
        assert r.chi_exponent == 9 * 3  # 9 * v3(4^9 - 1)

    def test_size_cap(self, monkeypatch):
        # level (4,3) is normal for kappa = 4 and has group-ring rank 3^7 = 2187 > 2000
        X = trivial_module()

        def no_rows(*args):
            raise AssertionError("group-ring rows built before the rank check")

        monkeypatch.setattr(X, "_group_ring_rows", no_rows)
        with pytest.raises(SizeCapExceededError):
            X.group_ring_oracle(U4, Level(4, 3))

    def test_triple_agreement_small_corpus(self):
        rng = random.Random(31)
        for p in (3, 5):
            ctx = PadicContext(p, 32)
            for _ in range(4):
                X = random_crossed_module(rng, ctx)
                for lv in admissible_levels(X, 1, 1):
                    for u in (1, 1 + p, 1 + p * p):
                        rho = Character.from_int(ctx, u)
                        r1 = X.euler_reduced(rho, lv)
                        r2 = X.euler_akashi(rho, lv)
                        r3 = X.group_ring_oracle(rho, lv)
                        assert r1.status is r2.status is r3.status
                        assert r1.chi_exponent == r2.chi_exponent == r3.chi_exponent
                        assert u == 1 or r1.status is not EulerStatus.NOT_FINITE, (lv, u)
                        if r1.exists:
                            assert r1.h1_exponent == r2.h1_exponent == r3.h1_exponent == 0

    def test_rank_three_near_identity(self):
        # A = I + 3 C at levels (1,1), (0,2), (1,2); the module with a constant-1
        # diagonal summand is not finite at u = 1, which the certificate decides
        rng = random.Random(35)
        ctx = PadicContext(3, 128)  # the Akashi value needs N above chi, which reaches 84 here
        seen = set()
        for kappa in (4, 10):
            modules = []
            for _ in range(3):
                modules.append([[[(1 if i == j else 0) + 3 * rng.randint(-2, 2), 3 * rng.randint(-1, 1)]
                                 for j in range(3)] for i in range(3)])
            planted = [row[:] for row in modules[0]]
            planted[0] = [[1], [0], [0]]
            for row in planted[1:]:
                row[0] = [0]
            modules.append(planted)
            for A in modules:
                X = crossed(kappa, A, ctx)
                for nm in ((1, 1), (0, 2), (1, 2)):
                    if nm == (0, 2) and kappa == 4:
                        continue  # m <= n + v_3(kappa - 1) = 1
                    lv = Level(*nm)
                    for u in (1, 4, 10):
                        rho = Character.from_int(ctx, u)
                        r1 = X.euler_reduced(rho, lv)
                        r2 = X.euler_akashi(rho, lv)
                        r3 = X.group_ring_oracle(rho, lv)
                        assert r1.status is r2.status is r3.status, (A, kappa, nm, u)
                        assert r1.chi_exponent == r2.chi_exponent == r3.chi_exponent
                        if A is planted and u == 1:
                            assert r1.status is EulerStatus.NOT_FINITE
                            assert h0_infinite_block_circulant(X, rho, lv)
                        seen.add((nm, r1.status))
        assert {nm for nm, _ in seen} == {(1, 1), (0, 2), (1, 2)}
        assert {st for _, st in seen} == {EulerStatus.EXISTS, EulerStatus.NOT_FINITE}

    def test_direct_sum_multiplicativity(self):
        rng = random.Random(33)
        for _ in range(4):
            A = random_crossed_module(rng, CTX, d_max=1)
            B = random_crossed_module(rng, CTX, d_max=1)
            kappa = 4
            XA = crossed(kappa, A.exact_entries)
            XB = crossed(kappa, B.exact_entries)
            XC = crossed(
                kappa,
                [[A.exact_entries[0][0], [0]], [[0], B.exact_entries[0][0]]],
            )
            for lv in (Level(0, 0), Level(1, 1)):
                for u in (1, 4):
                    rho = Character.from_int(CTX, u)
                    ra, rb, rc = (
                        XA.euler_reduced(rho, lv),
                        XB.euler_reduced(rho, lv),
                        XC.euler_reduced(rho, lv),
                    )
                    if ra.exists and rb.exists:
                        assert rc.exists
                        assert rc.chi_exponent == ra.chi_exponent + rb.chi_exponent
                aka = XA.akashi_series(lv)
                akb = XB.akashi_series(lv)
                akc = XC.akashi_series(lv)
                assert akc.coeffs == (aka * akb).coeffs

    def test_commutative_degeneration(self):
        # constant action at m = 0 recovers the Gamma-module semantics with
        # presentation (1+X)I - A
        rng = random.Random(34)
        for _ in range(5):
            d = rng.randint(1, 2)
            A = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
            if (A[0][0] if d == 1 else A[0][0] * A[1][1] - A[0][1] * A[1][0]) % 3 == 0:
                continue
            X = crossed(4, [[[A[i][j]] for j in range(d)] for i in range(d)])
            F = [
                [[1 - A[i][j], 1] if i == j else [-A[i][j]] for j in range(d)]
                for i in range(d)
            ]
            try:
                M = GammaModule.from_int_matrix(CTX, F)
            except Exception:
                continue
            for n in range(3):
                for u in (1, 4, 7):
                    rho = Character.from_int(CTX, u)
                    rx = X.euler_reduced(rho, Level(n, 0))
                    rm = M.euler_direct(rho, n)
                    assert rx.status is rm.status
                    assert rx.chi_exponent == rm.chi_exponent


def sigma_int(f, kappa):
    """sigma(f) = f((1 + Y)^kappa - 1) over Z, for an ascending integer coefficient list f."""
    s = [0] + [comb(kappa, i) for i in range(1, kappa + 1)]
    out = [0]
    for c in reversed(f):
        out = po.padd(po.pmul(out, s, None), [c], None)
    return po.trim_int(out)


def inverse_elementary(E):
    """I - c E_ij, the inverse of the elementary I + c E_ij."""
    return [[e if i == j else [-c for c in e] for j, e in enumerate(row)] for i, row in enumerate(E)]


class TestBasisChange:
    """x -> sigma(x) A in the basis e' = P e is x' -> sigma(x') A', A' = sigma(P) A P^-1.

    For P = E1 E2, a product of elementary matrices over Z[Y], A and A' are one
    module, so each route gives both one answer at every level and twist.  The
    transform P A P^-1, with sigma dropped, is the same one wherever sigma is
    trivial on the level's quotient of Z_p[[Y]], that is at m <= v_p(kappa - 1),
    and must change some answer above it.
    """

    @staticmethod
    def cases():
        for p, seed, n_max, rank_cap in ((3, 101, 2, 250), (3, 113, 2, 250), (5, 101, 2, 250),
                                         (7, 101, 1, 686)):
            for X in crossed_corpus(seed, 6, p):
                if X.d == 2:
                    yield X, admissible_levels(X, n_max, 2, rank_cap=rank_cap)
        # swap-type modules at p = 23, one of them the swap itself (not finite at u = 1)
        ctx = PadicContext(23, 64)
        levels = [Level(0, 0), Level(0, 1), Level(1, 0)]
        for A in ([[[23, 1], [1, -2]], [[1, 3], [-23, 0, 1]]], [[[0], [1]], [[1], [0]]]):
            yield crossed(24, A, ctx), levels

    @staticmethod
    def answers(X, levels):
        p = X.context.p
        out = {}
        for lv in levels:
            for u in (1, 1 + p, 1 + 2 * p):
                rho = Character.from_int(X.context, u)
                out[lv, u] = [(r.status, r.chi_exponent) for r in
                              (X.euler_reduced(rho, lv), X.euler_akashi(rho, lv),
                               X.group_ring_oracle(rho, lv))]
        return out

    def test_every_route_gives_one_answer(self):
        rng = random.Random(17)
        seen, above, wrong = set(), set(), []
        for X, levels in self.cases():
            p, kappa = X.context.p, X.kappa_exact
            E1, E2 = elementary(2, rng), elementary(2, rng)
            P = mat_mul(E1, E2)
            P_inv = mat_mul(inverse_elementary(E2), inverse_elementary(E1))
            assert mat_mul(P, P_inv) == [[[1], [0]], [[0], [1]]]
            A = [list(map(list, row)) for row in X.exact_entries]
            sigma_P = [[sigma_int(e, kappa) for e in row] for row in P]
            changed = crossed(kappa, mat_mul(mat_mul(sigma_P, A), P_inv), X.context)
            want = self.answers(X, levels)
            assert self.answers(changed, levels) == want, (A, P)
            v = exactint.int_valuation(kappa - 1, p)
            no_sigma = self.answers(crossed(kappa, mat_mul(mat_mul(P, A), P_inv), X.context), levels)
            for (lv, u), got in no_sigma.items():
                if got != want[lv, u]:
                    assert lv.m > v, (A, P, lv, u)
                    wrong.append((p, lv, u))
            seen |= {(p, s) for routes in want.values() for s, _ in routes}
            above |= {(p, lv.m > v) for lv in levels}
        assert {(p, True) for p in (3, 5, 7)} <= above
        assert {(23, EulerStatus.EXISTS), (23, EulerStatus.NOT_FINITE)} <= seen
        assert wrong


class TestExactKappa:
    """The routes read kappa mod p^m from the exact kappa, also below precision m."""

    @pytest.mark.parametrize(
        "kappa, entries, N, level",
        [
            (16, [[[1]]], 2, (2, 3)),
            (16, [[[1, 1]]], 2, (2, 3)),
            (16, [[[1, 3]]], 1, (1, 2)),
            # kappa = 28 is 1 mod 3^3 but not mod 3^4: kappa mod p^N would make sigma trivial
            (28, [[[1, 3]]], 3, (1, 4)),
        ],
    )
    def test_low_precision_decisions_match_high(self, kappa, entries, N, level):
        lv = Level(*level)
        assert lv.m > N
        lo = crossed(kappa, entries, PadicContext(3, N))
        hi = crossed(kappa, entries, PadicContext(3, 64))
        decided = 0
        for u in (1, 4):
            for route in ("euler_reduced", "euler_akashi", "group_ring_oracle"):
                a = getattr(lo, route)(Character.from_int(lo.context, u), lv)
                if a.status is EulerStatus.INDETERMINATE:
                    continue
                decided += 1
                b = getattr(hi, route)(Character.from_int(hi.context, u), lv)
                assert (a.status, a.chi_exponent) == (b.status, b.chi_exponent), (route, u)
        assert decided


class TestFindTwistCrossed:
    def test_trivial_module_accepts_four(self):
        X = trivial_module()
        rho, rep = find_twist_crossed(X, [Level(0, 0), Level(1, 1), Level(1, 2)])
        assert rep.accepted_u == 4
        assert not rep.candidates[0].accepted  # trivial character fails first
        accepted = rep.candidates[-1]
        assert [o.chi_exponent for o in accepted.outcomes] == [1, 6, 18]
        assert [o.cross_exponent for o in accepted.outcomes] == [1, 6, 18]
        assert [o.level for o in accepted.outcomes] == [Level(0, 0), Level(1, 1), Level(1, 2)]

    def test_trivial_character_accepted_when_good(self):
        # Akashi at (0,0) is X + (1-c) with c = 4, so u = 1 already certifies
        X = crossed(4, [[[4]]])
        rho, rep = find_twist_crossed(X, [Level(0, 0)])
        assert rep.accepted_u == 1
        assert rep.candidates[0].accepted

    def test_invalid_level_rejected_before_search(self):
        X = trivial_module()
        with pytest.raises(ValidationError):
            find_twist_crossed(X, [Level(0, 2)])
