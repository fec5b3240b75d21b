"""The unit-free core of a gamma presentation, split once per module.

`gamma.unit_free_core` eliminates every entry of F with a unit constant term
over Z[X], once, at construction; `euler_direct` twists and folds only what is
left.  The core must present the same module as F at every level, twist and
precision, hold no unit there, be empty exactly when det F(0) is a unit mod p,
and be built without the analytic route's inputs.  Presentations related by a
unimodular change of basis over Z[X] present one module, so both routes must
give them one answer; a change that is not unimodular must change one.  The
routes keep no per-task state on the module.
"""

import random
from functools import reduce

import pytest

from iwalab import Character, EulerStatus, GammaModule, PadicContext, exactint, kernels, padic
from iwalab import _polyops as po
from iwalab import gamma as gamma_layer
from iwalab.corpus import gamma_corpus
from iwalab.crossed import LENGTH_CAP
from iwalab.kernels import smith_exponents

from oracles import det_int, gamma_not_finite, twisted_group_ring

# planted presentations at p = 23, where the corpus generator gives near-trivial modules:
# det F = X - 23, (23 + X)(X^2 - 23), X (not finite at u = 1), and a d = 2 one with mu = 0
PLANTED_23 = [
    [[[-23, 1]]],
    [[[23, 1], [1]], [[0], [-23, 0, 1]]],
    [[[0, 1]]],
    [[[23**2, 1, 1], [23]], [[1], [1, 23]]],
]

# planted p = 23 presentations with det F(0) a unit mod 23, so an empty core:
# det F = 1 + 23X, 5 - X + X^2, and d = 2 and d = 3 ones with units off the diagonal
PLANTED_23_UNIT = [
    [[[1, 23]]],
    [[[5, -1, 1]]],
    [[[2, 1], [23]], [[5], [3, 0, 1]]],
    [[[1, 1], [0], [23]], [[2], [1, 23], [0]], [[0], [3, 1], [4, 0, 1]]],
]


def nonzero(exps):
    return [e for e in exps if e != 0]


def level_exponents(M, p, P):
    return smith_exponents(po.block_circulant(M), p, P) if M else []


@pytest.fixture
def builds(monkeypatch):
    """The level builders `euler_direct` hands to `group_ring_h0`, in call order."""
    seen = []

    def recorded(build, p, N):
        seen.append(build)
        return padic.group_ring_h0(build, p, N)

    monkeypatch.setattr(gamma_layer, "group_ring_h0", recorded)
    return seen


class TestCoreKeepsTheCokernel:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_against_the_split_full_level_matrix(self, p, builds):
        k = kernels.word_precision(p, 64)
        sizes = set()
        for M in gamma_corpus(20 + p, 16, p):
            F0 = [[e[0] % p for e in row] for row in M.exact_entries]
            rank = smith_exponents(F0, p, 1).count(0)
            assert len(M._core) == M.d - rank, M.exact_entries
            assert (M._core == ()) == (det_int(F0) % p != 0), M.exact_entries
            sizes.add(len(M._core))
            for u in (1, 1 + p, 1 + 2 * p):
                for n in range(3):
                    builds.clear()
                    M.euler_direct(Character.from_int(M.context, u), n)
                    # an empty core is answered at the call: no builder, h0 = 0
                    assert len(builds) == (1 if M._core else 0), M.exact_entries
                    for P in (k, 64):
                        q = p**P
                        c = pow(u, -1, q)
                        full = [[twisted_group_ring(e, p**n, q, c) for e in row]
                                for row in M.exact_entries]
                        want = nonzero(level_exponents(po.split_units(full, p, q), p, P))
                        got = []
                        for build in builds:
                            core = build(q)
                            assert po.split_units(core, p, q) == core  # no unit at this level
                            got = nonzero(level_exponents(core, p, P))
                        assert got == want, (M.exact_entries, u, n, P)
        assert 0 in sizes and max(sizes) > 0

    def test_entries_are_minors_in_the_h_basis(self):
        ctx = PadicContext(3, 64)
        # F(0) = [[1, 2], [0, 0]] mod 3: one pivot, and the core is det F = X^2 + X - 6,
        # in h = 1 + X: h^2 - h - 6
        M = GammaModule.from_int_matrix(ctx, [[[1, 1], [2]], [[3], [0, 1]]])
        assert M._core == (((-6, -1, 1),),)
        # the first unit constant term is the 1 at (1, 0): row 0 becomes 1*X - 3*2,
        # in h: h - 7
        M = GammaModule.from_int_matrix(ctx, [[[3], [0, 1]], [[1], [2]]])
        assert M._core == (((-7, 1),),)
        # no unit constant term: F itself, in the h-basis
        M = GammaModule.from_int_matrix(ctx, [[[3, 1], [0, 2]], [[0, 0, 1], [6]]])
        assert M._core == (((2, 1), (-2, 2)), ((1, -2, 1), (6,)))

    def test_every_precision_shares_the_core(self):
        for M in gamma_corpus(3, 4, 5):
            assert M.with_precision(128)._core is M._core
            assert M.with_precision(8)._core is M._core

    def test_built_without_the_analytic_inputs(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the core read an input of the analytic route")

        modules = gamma_corpus(4, 6, 3) + gamma_corpus(4, 6, 5)
        for owner, name in ((exactint, "poly_mat_det"), (exactint, "bareiss_det"),
                            (kernels, "bareiss_det"), (exactint, "twisted_chi"),
                            (exactint, "lambda_mu")):
            monkeypatch.setattr(owner, name, refuse)
        for M in modules:
            assert gamma_layer.unit_free_core(M.exact_entries, M.context.p) == M._core

    def test_the_exact_shift_is_the_substitution(self):
        rng = random.Random(9)
        for length in list(range(1, 12)) + [LENGTH_CAP]:
            f = [rng.randint(-9, 9) * 3 ** rng.randint(0, 40) for _ in range(length)]
            assert po.h_shift(f) == po.substitute_linear(f, -1, 1, None)


class TestEmptyCore:
    """det F(0) a unit mod p: the core is empty, and every (u, n) reads chi = 0.

    `euler_direct` answers such a module at the call.  The theorem behind it:
    for u = 1 mod p, Phi_(p^k)(u) = 0 mod p, so were Phi_(p^k)(u(1+X)) a
    factor of det F, det F(0) would be 0 mod p.  So no level is not finite
    (checked with sympy, by neither route), and the twisted det F is a unit
    power series, whose norms are units: the analytic route reads chi = 0.
    """

    @staticmethod
    def modules():
        for p in (3, 5, 7):
            for M in gamma_corpus(20 + p, 16, p):
                if det_int([[e[0] for e in row] for row in M.exact_entries]) % p:
                    yield M
        for F in PLANTED_23_UNIT:
            yield GammaModule.from_int_matrix(PadicContext(23, 64), F)

    def test_no_level_is_not_finite_and_chi_is_zero(self):
        count = 0
        for M in self.modules():
            assert M._core == (), M.exact_entries
            p = M.context.p
            for u in (1, 1 + p, 1 + 2 * p):
                rho = Character.from_int(M.context, u)
                for n in range(4):
                    assert not gamma_not_finite(M.exact_entries, u, p, n), (M.exact_entries, u, n)
                    r = M.euler_analytic(rho, n)
                    assert r.exists and r.chi_exponent == 0, (M.exact_entries, u, n, r)
            count += 1
        assert count > 30

    def test_answered_at_the_call(self, monkeypatch):
        calls = []
        for owner, name in ((gamma_layer, "group_ring_h0"), (kernels, "smith_ladder"),
                            (kernels, "smith_exponents")):
            inner = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, name=name, inner=inner: calls.append(name) or inner(*a))
        for M in self.modules():
            p = M.context.p
            for u in (1, 1 + p, 1 + 2 * p):
                rho = Character.from_int(M.context, u)
                for n in range(4):
                    r = M.euler_direct(rho, n)
                    assert r.exists and r.chi_exponent == r.h0_exponent == 0, (M.exact_entries, u, n)
        assert calls == []
        # the spies see a module with a core: det F = X + 3
        M = GammaModule.from_int_matrix(PadicContext(3, 64), [[[3, 1]]])
        M.euler_direct(Character.trivial(M.context), 1)
        assert set(calls) == {"group_ring_h0", "smith_ladder", "smith_exponents"}


def elementary(d, rng):
    """I + c(X) E_ij, i != j, with c of degree <= 2 and coefficients in [-3, 3]."""
    E = [[[1] if i == j else [0] for j in range(d)] for i in range(d)]
    i, j = rng.sample(range(d), 2)
    E[i][j] = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
    return E


def mat_mul(A, B):
    d = len(A)
    return [[po.trim_int(reduce(lambda s, t: po.padd(s, po.pmul(A[i][t], B[t][j], None), None),
                                range(d), [0]))
             for j in range(d)] for i in range(d)]


def answers(M, us, n_max):
    out = []
    for u in us:
        rho = Character.from_int(M.context, u)
        for n in range(n_max + 1):
            for r in (M.euler_direct(rho, n), M.euler_analytic(rho, n)):
                out.append((r.status, r.chi_exponent))
    return out


class TestBasisChange:
    """F' = U (F + 1) V for U, V products of elementary matrices over Z[X] presents F's module."""

    @staticmethod
    def cases():
        for p, n_max in ((3, 2), (5, 2), (7, 1)):
            for M in gamma_corpus(40 + p, 5, p):
                yield M, n_max
        for F in PLANTED_23:
            yield GammaModule.from_int_matrix(PadicContext(23, 64), F), 1

    def test_both_routes_give_one_answer(self):
        rng = random.Random(17)
        seen = set()
        for M, n_max in self.cases():
            p = M.context.p
            d = M.d + 1
            bigger = [list(row) + [[0]] for row in M.exact_entries] + [[[0]] * M.d + [[1]]]
            U = mat_mul(elementary(d, rng), elementary(d, rng))
            V = mat_mul(elementary(d, rng), elementary(d, rng))
            changed = mat_mul(mat_mul(U, bigger), V)
            same = GammaModule.from_int_matrix(M.context, changed)
            us = (1, 1 + p, 1 + 2 * p)
            want = answers(M, us, n_max)
            assert answers(same, us, n_max) == want, (M.exact_entries, changed)
            seen.update(s for s, _ in want)
            # one row times p is not unimodular: det F gains a factor p
            scaled = [[[p * c for c in e] for e in changed[0]]] + changed[1:]
            other = GammaModule.from_int_matrix(M.context, scaled)
            assert answers(other, us, n_max) != want, (M.exact_entries, scaled)
        assert {EulerStatus.EXISTS, EulerStatus.NOT_FINITE} <= seen


class TestNoPerTaskState:
    def test_routes_leave_the_module_dict_alone(self):
        modules = gamma_corpus(11, 6, 3) + gamma_corpus(11, 6, 5)
        modules.append(GammaModule.from_int_matrix(PadicContext(3, 64), [[[0, 1]]]))
        statuses = set()
        for M in modules:
            before = dict(vars(M))
            p = M.context.p
            for u in (1, 1 + p):
                rho = Character.from_int(M.context, u)
                for n in range(3):
                    statuses.add(M.euler_direct(rho, n).status)
                    statuses.add(M.euler_analytic(rho, n).status)
            after = vars(M)
            assert after.keys() == before.keys()
            assert all(after[key] is value for key, value in before.items())
        assert EulerStatus.NOT_FINITE in statuses and EulerStatus.EXISTS in statuses
