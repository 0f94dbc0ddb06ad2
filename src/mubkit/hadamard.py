"""Generalized Hadamard matrices with root-of-unity entries stored as exponents.

An s x s matrix H with unit-modulus entries is generalized Hadamard when
H H* = s I, i.e. distinct rows are orthogonal.  Every entry here is a root
of unity, so H is stored as an integer exponent table against a fixed root
order m: entry (r, c) is exp(2 pi i * exponents[r][c] / m).

Row orthogonality is decided exactly: the inner product of rows r and r'
is sum_c root(m, e[r][c] - e[r'][c]), a group-ring element whose vanishing
is tested modulo the m-th cyclotomic polynomial.  The package has no float
check of H; the tests cross-check this one against a numeric Gram matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from .cyclotomic import MAX_ROOT_ORDER, counts_to_cyclotomic

MAX_TABLE_SIZE = 1 << 12


@dataclass(frozen=True)
class GenHadamard:
    root_order: int
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = self.root_order
        if m < 1:
            raise ValueError(f"root order must be >= 1, got {m}")
        n = len(self.exponents)
        if n < 1:
            raise ValueError("matrix must have at least one row")
        for r, row in enumerate(self.exponents):
            if len(row) != n:
                raise ValueError(f"row {r} has {len(row)} entries, want {n}")
            for e in row:
                if not 0 <= e < m:
                    raise ValueError(f"exponent {e} out of range for root order {m}")

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


@dataclass(frozen=True)
class HadamardReport:
    size: int
    violations: tuple[tuple[int, int], ...]  # row pairs whose inner product is not 0

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_hadamard(h: GenHadamard) -> HadamardReport:
    """Exact check that all distinct row pairs are orthogonal; a root order
    above MAX_ROOT_ORDER is refused."""
    m = h.root_order
    if m > MAX_ROOT_ORDER:
        raise ValueError(f"TooLarge: root order {m} exceeds the limit {MAX_ROOT_ORDER}")
    bad = []
    for r in range(h.size):
        for r2 in range(r + 1, h.size):
            counts = Counter(
                (h.exponents[r][c] - h.exponents[r2][c]) % m for c in range(h.size)
            )
            if not counts_to_cyclotomic(m, counts).is_zero():
                bad.append((r, r2))
    return HadamardReport(h.size, tuple(bad))
