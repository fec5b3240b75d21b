"""Deterministic random corpora for self-tests and the acceptance suite.

Presentations have small exact integer polynomial entries so every verdict
stays certifiable; generators resample until the structural invariants
(torsion, unit action determinant) hold.
"""

from __future__ import annotations

import random

from .crossed import CrossedModule, Level
from .errors import PrecisionExhaustedError, ValidationError, ZeroDeterminantError
from .gamma import GammaModule
from .padic import PadicContext


def _random_entries(rng: random.Random, d: int, deg_max: int, coeff_bound: int):
    """A d x d matrix of integer polynomials, row by row; each entry draws its degree first."""

    def entry():
        deg = rng.randint(0, deg_max)
        return [rng.randint(-coeff_bound, coeff_bound) for _ in range(deg + 1)]

    return [[entry() for _ in range(d)] for _ in range(d)]


def random_gamma_module(rng: random.Random, ctx: PadicContext, d_max: int = 3) -> GammaModule:
    """Entries of degree <= 4 and coefficients in [-9, 9]."""
    while True:
        d = rng.randint(1, d_max)
        entries = _random_entries(rng, d, 4, 9)
        try:
            return GammaModule.from_int_matrix(ctx, entries)
        except (ZeroDeterminantError, PrecisionExhaustedError):
            continue


def random_crossed_module(rng: random.Random, ctx: PadicContext, d_max: int = 2) -> CrossedModule:
    """kappa = 1 + p or 1 + 2p, and entries of degree <= 2 and coefficients in [-5, 5]."""
    kappas = (1 + ctx.p, 1 + 2 * ctx.p)
    while True:
        d = rng.randint(1, d_max)
        kappa = rng.choice(kappas)
        entries = _random_entries(rng, d, 2, 5)
        try:
            return CrossedModule.from_int_data(ctx, kappa, entries)
        except ValidationError:
            continue


def gamma_corpus(seed: int, count: int, p: int, N: int = 64, **kw):
    rng = random.Random(seed)
    ctx = PadicContext(p, N)
    return [random_gamma_module(rng, ctx, **kw) for _ in range(count)]


def crossed_corpus(seed: int, count: int, p: int, N: int = 64, **kw):
    rng = random.Random(seed)
    ctx = PadicContext(p, N)
    return [random_crossed_module(rng, ctx, **kw) for _ in range(count)]


def admissible_levels(
    module: CrossedModule, n_max: int = 2, m_max: int = 2, rank_cap: int = 162
):
    """Valid levels (normality) whose group-ring rank d*p^(n+m) stays under the cap."""
    p = module.context.p
    out = []
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            if module.d * p ** (n + m) > rank_cap:
                continue
            try:
                out.append(module.check_level(Level(n, m)))
            except ValidationError:
                continue
    return out
