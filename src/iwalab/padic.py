"""Residues modulo p^N, their valuations, and Smith exponents over Z/p^N.

A residue of 0 is indistinguishable from any multiple of p^N, so its
valuation is the sentinel AT_LEAST_N rather than a number.  `smith_form_raw`
gives the elementary divisors of residue rows, and `group_ring_h0` a cokernel
order over Z/p^N[h]/(h^n - 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import total_ordering
from typing import Sequence, Union

from .errors import ValidationError
from . import _polyops as po
from . import exactint, kernels


@total_ordering
class _AtLeastN:
    """Sentinel valuation: 'indistinguishable from 0 at this precision'.

    Compares greater than every integer so mixed lists sort with it last.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AtLeastN"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("AtLeastN")

    def __lt__(self, other):
        if isinstance(other, (int, _AtLeastN)):
            return False
        return NotImplemented


AT_LEAST_N = _AtLeastN()

Valuation = Union[int, _AtLeastN]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.3e24, 30 random rounds beyond."""
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % sp == 0:
            return n == sp
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < 3317044064679887385961981:
        bases = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    else:
        rng = random.Random(n)
        bases = [rng.randrange(2, n - 1) for _ in range(30)]
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PadicContext:
    """The coefficient ring Z/p^N, read as Z_p known to N p-adic digits."""

    p: int
    N: int
    modulus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p < 3 or self.p % 2 == 0 or not is_probable_prime(self.p):
            raise ValidationError("odd-prime", f"p must be an odd prime >= 3, got {self.p}")
        if self.N < 1:
            raise ValidationError("precision-positive", f"N must be >= 1, got {self.N}")
        object.__setattr__(self, "modulus", self.p ** self.N)

    def with_precision(self, N: int) -> "PadicContext":
        return PadicContext(self.p, N)

    def int_valuation(self, residue: int) -> Valuation:
        """Valuation of a residue in [0, p^N): largest e < N with p^e | residue."""
        x = residue % self.modulus
        return AT_LEAST_N if x == 0 else exactint.int_valuation(x, self.p)


@dataclass(frozen=True)
class PadicInt:
    """A p-adic integer known modulo p^N."""

    context: PadicContext
    residue: int

    def __post_init__(self):
        object.__setattr__(self, "residue", self.residue % self.context.modulus)

    def valuation(self) -> Valuation:
        return self.context.int_valuation(self.residue)

    def __repr__(self):
        return f"PadicInt({self.residue} mod {self.context.p}^{self.context.N})"


@dataclass(frozen=True)
class ElementaryDivisors:
    """Diagonal form p^{e_1} | p^{e_2} | ... of a matrix over Z/p^N.

    `exponents` has min(row_count, col_count) entries, sorted ascending with
    AT_LEAST_N last.
    """

    exponents: tuple
    row_count: int
    col_count: int

    @property
    def has_at_least_n(self) -> bool:
        return any(e is AT_LEAST_N for e in self.exponents)

    @property
    def finite_sum(self) -> int:
        """Sum of the exponents; only meaningful when none is AT_LEAST_N."""
        return sum(e for e in self.exponents if e is not AT_LEAST_N)


def smith_form_raw(rows: Sequence[Sequence[int]], ctx: PadicContext) -> ElementaryDivisors:
    """Elementary divisors over Z/p^N of residue rows by minimal-valuation pivoting.

    `kernels.smith_ladder` eliminates the rows reduced mod p^k first and
    the rows as given only when a divisor reaches p^k.
    """

    def build(q):
        return rows if q == ctx.modulus else [[v % q for v in r] for r in rows]

    exps = kernels.smith_ladder(build, ctx.p, ctx.N)
    return ElementaryDivisors(
        exponents=tuple(AT_LEAST_N if e < 0 else e for e in exps),
        row_count=len(rows),
        col_count=len(rows[0]) if rows else 0,
    )


def group_ring_h0(build, p: int, N: int) -> int | None:
    """h0 exponent of the cokernel of a square matrix over Z/p^N[h]/(h^n - 1); None if undetermined.

    `build(q)` returns the matrix mod q, each entry a length-n list in the
    h-basis.  At each precision of `kernels.smith_ladder`, q = p^P: the unit
    entries split off over the group ring (`_polyops.split_units`), and
    Smith takes the block circulant of what is left.  At n = 1 the ring is
    Z/q, where splitting units is the kernel's own unit pivoting, so the
    scalar matrix goes to Smith whole.  None means some divisor reached p^N.
    """

    def rows(q):
        M = build(q)
        if len(M[0][0]) == 1:
            return [[e[0] for e in row] for row in M]
        return po.block_circulant(po.split_units(M, p, q))

    exps = kernels.smith_ladder(rows, p, N)
    return None if -1 in exps else sum(exps)
