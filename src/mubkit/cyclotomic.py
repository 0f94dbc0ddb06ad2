"""Two exact tests on sums of roots of unity, the only ring facts the
verifiers ask.

A multiset of exponents stands for S = sum of w_m^e over it, with
w_m = exp(2*pi*i/m) and a repeated exponent counted each time.  Each test
writes S as the sum of c[e] * w_m^e over e < m, with integer counts c,
and decides S = 0 down the tower of fields Q(w_q) inside Q(w_m), where
p is the least prime of m and q = m/p, without floating point:

- p divides q: w_m^p = w_q, and 1, w_m, ..., w_m^(p-1) are a basis of
  Q(w_m) over Q(w_q); so S = 0 exactly when every slice c[r::p] sums to
  0 at order q.
- p does not divide q: w_m^(p*j + r) = w_p^(a*r) * w_q^(j + b*r), with
  a = q^-1 mod p and b = p^-1 mod q, and over Q(w_q) the only relation
  among 1, w_p, ..., w_p^(p-1) is that they sum to 0; so S = 0 exactly
  when every slice c[r::p], r >= 1, turned right by b*r mod q, minus
  slice 0 sums to 0 at order q.
- m = 1: S = c[0].

- vanishes(m, exponents) tests S = 0: two Hadamard rows, or two vectors of
  one basis, are orthogonal.
- unbiased(m, exponents, d, n) tests d*|S|^2 = n: two vectors of different
  bases are unbiased when n = nu*nv.  S*conj(S) is the autocorrelation of
  the exponent counts, so the test scales it by d, subtracts n at
  exponent 0 and tests that sum for 0.

An order above MAX_ROOT_ORDER, or below 1, is refused before any list is
built.

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
import operator
from collections import Counter
from collections.abc import Iterable

TOL = 1e-9  # float tolerance shared by every approximate check in the package
# A test holds one count per root of its order m and slices all m of them
# once per prime factor of m; so the exact checks refuse a root order above
# this one (the scale of hadamard.MAX_TABLE_SIZE).
MAX_ROOT_ORDER = 1 << 12


def _check_order(m: int) -> None:
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    if m > MAX_ROOT_ORDER:
        raise ValueError(f"TooLarge: root order {m} exceeds the limit {MAX_ROOT_ORDER}")


@functools.lru_cache(maxsize=None)
def _least_prime(m: int) -> int:
    return next(p for p in range(2, m + 1) if m % p == 0)


def _zero(m: int, c: list[int]) -> bool:
    """Whether the sum of c[e] * w_m^e over e < m is exactly 0, one level
    of the tower at a time (see the module docstring)."""
    if not any(c):
        return True
    if m == 1:
        return False
    p = _least_prime(m)
    q = m // p
    if q % p == 0:
        return all(_zero(q, c[r::p]) for r in range(p))
    b, head = pow(p, -1, q), c[::p]
    turns = ((c[r::p], q - b * r % q) for r in range(1, p))
    return all(_zero(q, list(map(operator.sub, s[k:] + s[:k], head))) for s, k in turns)


def vanishes(m: int, exponents: Iterable[int]) -> bool:
    """Whether the sum of w_m^e over exponents is exactly 0."""
    _check_order(m)
    coeffs = [0] * m
    for e in exponents:
        coeffs[e % m] += 1
    return _zero(m, coeffs)


def unbiased(m: int, exponents: Iterable[int], d: int, n: int) -> bool:
    """Whether d*|S|^2 = n exactly, S the sum of w_m^e over exponents."""
    _check_order(m)
    counts = Counter(e % m for e in exponents).items()
    coeffs = [0] * m
    for e, a in counts:
        for f, b in counts:
            coeffs[(e - f) % m] += d * a * b
    coeffs[0] -= n
    return _zero(m, coeffs)
