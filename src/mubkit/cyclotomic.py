"""Two exact tests on sums of roots of unity, the only ring facts the
verifiers ask.

A multiset of exponents stands for S = sum of w_m^e over it, with
w_m = exp(2*pi*i/m) and a repeated exponent counted each time.  S is zero
exactly when Phi_m, the m-th cyclotomic polynomial and the minimal
polynomial of w_m, divides the polynomial sum of x^(e mod m); so each test
takes one exact integer remainder modulo Phi_m and never touches floating
point.

- vanishes(m, exponents) tests S = 0: two Hadamard rows, or two vectors of
  one basis, are orthogonal.
- unbiased(m, exponents, d, n) tests d*|S|^2 = n: two vectors of different
  bases are unbiased when n = nu*nv.  S*conj(S) is the autocorrelation of
  the exponent counts, so the test scales it by d, subtracts n at
  exponent 0 and takes the remainder of that.

Phi_m is built once per order, by exact division of x^m - 1 by Phi_d for
each proper divisor d of m, and kept as a tuple of coefficients.  An order
above MAX_ROOT_ORDER, or below 1, is refused before anything is built.

>>> vanishes(3, [0, 1, 2])  # 1 + w + w^2 = 0
True
>>> vanishes(4, [0, 1])
False
>>> unbiased(4, [0, 1], 1, 2)  # |1 + i|^2 = 2
True
>>> unbiased(3, [0, 1], 9, 9)  # |1 + w|^2 = 1
True
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Iterable

TOL = 1e-9  # float tolerance shared by every approximate check in the package
# A test holds one coefficient per root of its order m and divides by Phi_m,
# whose construction divides x^m - 1 by the other factors; so the exact
# checks refuse a root order above this one (the scale of
# hadamard.MAX_TABLE_SIZE).
MAX_ROOT_ORDER = 1 << 12


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


def _divmod(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Long division of integer coefficient lists (x^i at index i) by a
    monic den of no higher degree; exact over the integers.  The remainder
    keeps its zeros."""
    rem = list(num)
    k = len(den) - 1
    terms = [(j, b) for j, b in enumerate(den) if b]
    quot = [0] * (len(rem) - k)
    for i in range(len(rem) - k - 1, -1, -1):
        c = rem[i + k]
        if c:
            quot[i] = c
            for j, b in terms:
                rem[i + j] -= c * b
    return quot, rem[:k]


@functools.lru_cache(maxsize=None)
def _phi(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, x^i at index i: x^m - 1 divided exactly by
    Phi_d for each proper divisor d of m."""
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    if m > MAX_ROOT_ORDER:
        raise ValueError(f"TooLarge: root order {m} exceeds the limit {MAX_ROOT_ORDER}")
    num = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m)[:-1]:
        num, rem = _divmod(num, _phi(d))
        assert not any(rem), f"x^{m}-1 not divisible by Phi_{d}"
    return tuple(num)


def vanishes(m: int, exponents: Iterable[int]) -> bool:
    """Whether the sum of w_m^e over exponents is exactly 0."""
    phi = _phi(m)
    coeffs = [0] * m
    for e in exponents:
        coeffs[e % m] += 1
    return not any(_divmod(coeffs, phi)[1])


def unbiased(m: int, exponents: Iterable[int], d: int, n: int) -> bool:
    """Whether d*|S|^2 = n exactly, S the sum of w_m^e over exponents."""
    phi = _phi(m)
    counts = Counter(e % m for e in exponents).items()
    coeffs = [0] * m
    for e, a in counts:
        for f, b in counts:
            coeffs[(e - f) % m] += d * a * b
    coeffs[0] -= n
    return not any(_divmod(coeffs, phi)[1])
