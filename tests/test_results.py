"""Verdicts are interned: one shared `EulerResult` per status and exponent.

`EulerResult.from_h0` and `from_exact` hand out cached instances, so a
route's answer costs a lookup, not a dataclass construction.  The results
stay frozen dataclasses, equal and hashed by their fields, and every route
hands out the interned ones.
"""

import dataclasses

import pytest

from iwalab import Character, CrossedModule, EulerResult, EulerStatus, GammaModule, Level, PadicContext


def interned(r):
    """The interned verdict with r's status and exponent."""
    if r.status is EulerStatus.EXISTS:
        return EulerResult.from_h0(r.chi_exponent)
    return EulerResult.from_exact(None if r.status is EulerStatus.NOT_FINITE else 0, below=0)


class TestInterned:
    def test_one_instance_per_exponent(self):
        for k in (0, 1, 7, 200):
            assert EulerResult.from_h0(k) is EulerResult.from_h0(k)
            assert EulerResult.from_exact(k) is EulerResult.from_h0(k)
            assert EulerResult.from_exact(k, below=k + 1) is EulerResult.from_h0(k)
        assert EulerResult.from_h0(1) is not EulerResult.from_h0(2)

    def test_one_instance_per_status(self):
        assert EulerResult.from_exact(None) is EulerResult.from_exact(None)
        assert EulerResult.from_exact(None, below=0) is EulerResult.from_exact(None)
        assert EulerResult.from_exact(64, below=64) is EulerResult.from_exact(5, below=0)
        assert EulerResult.from_exact(None) is not EulerResult.from_exact(5, below=0)

    def test_still_frozen(self):
        for r in (EulerResult.from_h0(3), EulerResult.from_exact(None),
                  EulerResult.from_exact(9, below=2)):
            for field in dataclasses.fields(r):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(r, field.name, 1)
        assert EulerResult.from_h0(3) == EulerResult(EulerStatus.EXISTS, 3, 3, 0)

    def test_equality_and_hash_by_fields(self):
        a = EulerResult.from_h0(4)
        b = dataclasses.replace(a)
        assert b is not a and b == a and hash(b) == hash(a)
        assert a != EulerResult.from_h0(5)
        assert EulerResult.from_exact(None) != EulerResult.from_exact(3, below=0)
        assert EulerResult.from_exact(None) == EulerResult(EulerStatus.NOT_FINITE)
        assert len({a, b, EulerResult.from_exact(4), EulerResult.from_exact(None)}) == 2

    def test_every_route_hands_out_the_interned_verdicts(self):
        ctx = PadicContext(3, 64)
        statuses = set()
        # det F = X (not finite at u = 1), X + 3, a unit; and a d = 2 one whose
        # chi = 70 at n = 0, u = 1 leaves the direct route indeterminate at N = 64
        gammas = [[[[0, 1]]], [[[3, 1]]], [[[1, 1]]],
                  [[[2 * 3**70 + 1, 3], [1, 2]], [[2, 1, 3], [2, 1, 3]]]]
        for F in gammas:
            M = GammaModule.from_int_matrix(ctx, F)
            for u in (1, 4):
                rho = Character.from_int(ctx, u)
                for n in range(2):
                    for r in (M.euler_direct(rho, n), M.euler_analytic(rho, n)):
                        assert r is interned(r), (F, u, n, r)
                        statuses.add(r.status)
        for kappa, A in ((4, [[[1]]]), (4, [[[1, 1]]]), (4, [[[1, 3]]])):
            X = CrossedModule.from_int_data(ctx, kappa, A)
            for u in (1, 4):
                rho = Character.from_int(ctx, u)
                for lv in (Level(0, 0), Level(1, 1)):
                    for r in (X.euler_reduced(rho, lv), X.euler_akashi(rho, lv),
                              X.group_ring_oracle(rho, lv)):
                        assert r is interned(r), (kappa, A, u, lv, r)
                        statuses.add(r.status)
        assert statuses == set(EulerStatus)
