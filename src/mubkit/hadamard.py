"""Generalized Hadamard matrices with root-of-unity entries stored as exponents.

An s x s matrix H with unit-modulus entries is generalized Hadamard when
H H* = s I, i.e. distinct rows are orthogonal.  Every entry here is a root
of unity, so H is stored as an integer exponent table against a fixed root
order m: entry (r, c) is exp(2 pi i * exponents[r][c] / m).

H H* = s I says exactly that the rows of H, each scaled by 1/sqrt(s), form
one orthonormal basis of C^s, so verify_hadamard hands that one-basis set
to the exact MUB verifier (mub.verify_mubs) rather than keeping a row-pair
walk of its own.  The package has no float check of H; the tests
cross-check this one against a numeric Gram matrix.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from functools import reduce

from .record import checked_make

MAX_TABLE_SIZE = 1 << 12


class GenHadamard(namedtuple("GenHadamard", "root_order exponents")):
    __slots__ = ()

    def __new__(cls, root_order: int, exponents: tuple[tuple[int, ...], ...]) -> "GenHadamard":
        m = root_order
        if m < 1:
            raise ValueError(f"root order must be >= 1, got {m}")
        n = len(exponents)
        if n < 1:
            raise ValueError("matrix must have at least one row")
        for r, row in enumerate(exponents):
            if len(row) != n:
                raise ValueError(f"row {r} has {len(row)} entries, want {n}")
            for e in row:
                if not 0 <= e < m:
                    raise ValueError(f"exponent {e} out of range for root order {m}")
        return tuple.__new__(cls, (root_order, exponents))

    _make = classmethod(checked_make)

    @property
    def size(self) -> int:
        return len(self.exponents)


def dft(s: int) -> GenHadamard:
    """Character table of the cyclic group of order s: entry (k, l) = w^(k*l)."""
    if s < 1:
        raise ValueError(f"size must be >= 1, got {s}")
    return GenHadamard(s, tuple(tuple(k * l % s for l in range(s)) for k in range(s)))


def tensor_hadamard(a: GenHadamard, b: GenHadamard) -> GenHadamard:
    """Kronecker product in row-major index order, exponents lifted to lcm."""
    m = math.lcm(a.root_order, b.root_order)
    fa, fb = m // a.root_order, m // b.root_order
    rows = []
    for ra in range(a.size):
        for rb in range(b.size):
            rows.append(tuple(
                (a.exponents[ra][ca] * fa + b.exponents[rb][cb] * fb) % m
                for ca in range(a.size)
                for cb in range(b.size)
            ))
    return GenHadamard(m, tuple(rows))


def char_table(orders: Sequence[int]) -> GenHadamard:
    """Character table of Z_n1 x ... x Z_nk as a tensor of DFT matrices."""
    orders = tuple(orders)
    if not orders:
        raise ValueError("EmptyInput: need at least one cyclic factor")
    size = 1
    for n in orders:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"factor orders must be positive integers, got {n!r}")
        size *= n
    if size > MAX_TABLE_SIZE:
        raise ValueError(f"TooLarge: group order {size} exceeds {MAX_TABLE_SIZE}")
    return reduce(tensor_hadamard, (dft(n) for n in orders))


class HadamardReport(namedtuple("HadamardReport", "size violations")):
    # violations: the row pairs whose inner product is not 0
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_hadamard(h: GenHadamard) -> HadamardReport:
    """Exact check that all distinct row pairs are orthogonal; a root order
    above MAX_ROOT_ORDER is refused (TooLarge).

    Row r becomes the vector of C^s with exponent e[r][c] at position c and
    norm s, and exact verify_mubs checks the one basis they form.  Its
    memo tests each distinct multiset of row differences once, so dft(s)
    takes tau(s) - 1 ring zero tests, not C(s, 2); rows equal up to one
    constant exponent fail with no test.  The failing pairs (r, r2),
    r < r2, are listed in row-major order.
    """
    from .mub import MubBasis, MubSet, MubVector, verify_mubs

    s, m = h.size, h.root_order
    positions = tuple(range(s))
    rows = MubBasis(tuple(MubVector(s, m, s, positions, row) for row in h.exponents))
    report = verify_mubs(MubSet(s, (rows,)))
    return HadamardReport(s, tuple((v.index, v.index2) for v in report.violations))
