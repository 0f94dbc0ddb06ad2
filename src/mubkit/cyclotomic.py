"""Exact arithmetic with integer combinations of roots of unity.

An element of order m lives in the group ring Z[C_m]: a vector of m integers
whose entry e counts the root w_m^e = exp(2*pi*i*e/m).  Addition and
multiplication stay in that redundant representation; nothing is reduced
modulo the m-th cyclotomic polynomial except inside the zero test, which
takes an exact integer polynomial remainder against Phi_m.  Elements of
different orders are lifted to the least common multiple by scaling
exponents, so mixed-order sums never touch floating point.

>>> (root(3, 0) + root(3, 1) + root(3, 2)).is_zero()
True
>>> root(4, 1) * root(4, 3) == Cyclotomic.from_int(1)
True
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

TOL = 1e-9  # float tolerance shared by every approximate check in the package
# An element holds one coefficient per root of its order m, and its zero test
# divides by Phi_m, whose construction divides x^m - 1 by the other factors;
# so the exact checks refuse a root order above this one (the scale of
# hadamard.MAX_TABLE_SIZE).
MAX_ROOT_ORDER = 1 << 12


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; coeffs[i] multiplies x**i, no trailing zeros."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        assert not self.coeffs or self.coeffs[-1] != 0, "trailing zero coefficient"

    @staticmethod
    def of(*coeffs: int) -> "IntPolynomial":
        return IntPolynomial(_trim(coeffs))

    @property
    def degree(self) -> int:
        # The zero polynomial reports degree -1.
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(_trim(out))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(_trim(out))

    def divmod(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division by a monic divisor; exact over the integers."""
        assert divisor.is_monic(), "divisor must be monic"
        rem = list(self.coeffs)
        dd = divisor.degree
        quot = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - dd - 1, -1, -1):
            c = rem[i + dd]
            if c:
                quot[i] = c
                for j, b in enumerate(divisor.coeffs):
                    rem[i + j] -= c * b
        return IntPolynomial(_trim(quot)), IntPolynomial(_trim(rem[:dd]))


def divisors(m: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= m:
        if m % i == 0:
            small.append(i)
            if i != m // i:
                large.append(m // i)
        i += 1
    return small + large[::-1]


@functools.lru_cache(maxsize=None)
def cyclo_poly(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial Phi_m, by exact division of x^m - 1.

    Phi_m = (x^m - 1) / prod(Phi_d for proper divisors d of m).  Every step
    is integer-exact; the remainder is asserted zero.
    """
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    if m == 1:
        return IntPolynomial.of(-1, 1)
    num = IntPolynomial((-1,) + (0,) * (m - 1) + (1,))
    den = IntPolynomial.of(1)
    for d in divisors(m):
        if d < m:
            den = den * cyclo_poly(d)
    quot, rem = num.divmod(den)
    assert rem.is_zero(), f"x^{m}-1 not divisible by its proper cyclotomic factors"
    return quot


@dataclass(frozen=True, eq=False)
class Cyclotomic:
    """Integer combination of m-th roots of unity; coeffs[e] counts w_m^e."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if len(self.coeffs) != self.order:
            raise ValueError(
                f"need {self.order} coefficients, got {len(self.coeffs)}"
            )

    @staticmethod
    def zero(order: int = 1) -> "Cyclotomic":
        return Cyclotomic(order, (0,) * order)

    @staticmethod
    def from_int(n: int) -> "Cyclotomic":
        return Cyclotomic(1, (n,))

    def lifted(self, order: int) -> "Cyclotomic":
        """Rewrite at a larger order (a multiple of this one): e -> e*order/m."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"{order} is not a multiple of order {self.order}")
        step = order // self.order
        out = [0] * order
        for e, c in enumerate(self.coeffs):
            if c:
                out[e * step] = c
        return Cyclotomic(order, tuple(out))

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        m = math.lcm(self.order, other.order)
        a, b = self.lifted(m), other.lifted(m)
        return Cyclotomic(m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self + (-other)

    def __mul__(self, other: "Cyclotomic | int") -> "Cyclotomic":
        if isinstance(other, int):
            return Cyclotomic(self.order, tuple(c * other for c in self.coeffs))
        m = math.lcm(self.order, other.order)
        a, b = self.lifted(m), other.lifted(m)
        out = [0] * m
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[(i + j) % m] += x * y
        return Cyclotomic(m, tuple(out))

    def __rmul__(self, other: int) -> "Cyclotomic":
        return self * other

    def conj(self) -> "Cyclotomic":
        """Complex conjugate: sends w^e to w^-e, an exact ring operation."""
        out = [0] * self.order
        for e, c in enumerate(self.coeffs):
            if c:
                out[(-e) % self.order] = c
        return Cyclotomic(self.order, tuple(out))

    def is_zero(self) -> bool:
        """Exact zero test: remainder of the coefficient polynomial mod Phi_m."""
        if not any(self.coeffs):
            return True
        poly = IntPolynomial(_trim(self.coeffs))
        _, rem = poly.divmod(cyclo_poly(self.order))
        return rem.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # mathematical equality is not consistent with a cheap hash

    def __repr__(self) -> str:
        terms = [(e, c) for e, c in enumerate(self.coeffs) if c]
        if not terms:
            return f"Cyclotomic.zero({self.order})"
        body = " + ".join(f"{c}*w{self.order}^{e}" for e, c in terms)
        return f"<{body}>"


def root(order: int, exponent: int) -> Cyclotomic:
    """The single root of unity w_order^exponent."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    coeffs = [0] * order
    coeffs[exponent % order] = 1
    return Cyclotomic(order, tuple(coeffs))


def counts_to_cyclotomic(order: int, counts: dict[int, int]) -> Cyclotomic:
    """Build an element from a sparse exponent -> multiplicity map."""
    coeffs = [0] * order
    for e, c in counts.items():
        coeffs[e % order] += c
    return Cyclotomic(order, tuple(coeffs))
