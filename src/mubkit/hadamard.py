"""Generalized Hadamard matrices with root-of-unity entries stored as exponents.

An s x s matrix H with unit-modulus entries is generalized Hadamard when
H H* = s I, i.e. distinct rows are orthogonal.  Every entry here is a root
of unity, so H is stored as an integer exponent table against a fixed root
order m: entry (r, c) is exp(2 pi i * exponents[r][c] / m).

Row orthogonality is decided exactly: the inner product of rows r and r'
is the sum over c of w_m^(e[r][c] - e[r'][c]), whose vanishing
cyclotomic.vanishes tests modulo the m-th cyclotomic polynomial.  That sum
depends only on the multiset of differences, so each distinct sorted tuple
of differences is tested once per matrix.  The package has no float
check of H; the tests cross-check this one against a numeric Gram matrix.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Sequence
from functools import reduce

from .cyclotomic import MAX_ROOT_ORDER, vanishes
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
    above MAX_ROOT_ORDER is refused.

    Rows r < r2 are keyed by their sorted differences e[r][c] - e[r2][c]
    mod m, which fix their inner product, and each distinct key gets one
    ring zero test: dft(n) makes tau(n) - 1 of them, not C(n, 2).  At most
    MAX_TABLE_SIZE verdicts are kept, which bounds memory on unstructured
    input.  The failing pairs (r, r2) are listed in row-major order.
    """
    m = h.root_order
    if m > MAX_ROOT_ORDER:
        raise ValueError(f"TooLarge: root order {m} exceeds the limit {MAX_ROOT_ORDER}")
    rows = h.exponents
    verdicts: dict[tuple[int, ...], bool] = {}
    bad = []
    for r, row in enumerate(rows):
        for r2 in range(r + 1, h.size):
            key = tuple(sorted(map(m.__rmod__, map(operator.sub, row, rows[r2]))))
            ok = verdicts.get(key)
            if ok is None:
                ok = vanishes(m, key)
                if len(verdicts) < MAX_TABLE_SIZE:
                    verdicts[key] = ok
            if not ok:
                bad.append((r, r2))
    return HadamardReport(h.size, tuple(bad))
