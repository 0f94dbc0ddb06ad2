"""Finite fields GF(p^e) at desk scale (p^e <= 2**16).

Elements are coefficient tuples of length e over Z_p, low degree first,
reduced modulo a fixed monic irreducible modulus.  The modulus is the
lexicographically smallest monic irreducible of degree e, coefficients
compared low degree first, so every table derived from a field is identical
across runs.  For e = 1 that convention picks x itself and arithmetic is
plain mod p.  The element <-> integer bijection is by base-p digits.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .arith import prime_power

MAX_ORDER = 1 << 16

Element = tuple[int, ...]


def _pdivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Polynomial divmod over Z_p; b must be nonzero."""
    rem = [c % p for c in a]
    while rem and rem[-1] == 0:
        rem.pop()
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - db - 1, -1, -1):
        c = (rem[i + db] * inv_lead) % p
        if c:
            quot[i] = c
            for j, bc in enumerate(b):
                rem[i + j] = (rem[i + j] - c * bc) % p
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _has_root(coeffs: list[int], p: int) -> bool:
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


def _monic_polys(degree: int, p: int) -> Iterator[list[int]]:
    for lower in itertools.product(range(p), repeat=degree):
        yield list(lower) + [1]


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    # Exhaustive: no root in Z_p, then no monic factor of degree <= e/2.
    e = len(coeffs) - 1
    if _has_root(coeffs, p):
        return False
    for d in range(2, e // 2 + 1):
        for g in _monic_polys(d, p):
            _, rem = _pdivmod(coeffs, g, p)
            if not rem:
                return False
    return True


class GField:
    """GF(p^e) with a deterministic modulus and tuple-of-digits elements."""

    def __init__(self, p: int, e: int = 1):
        if prime_power(p) != (p, 1):
            raise ValueError(f"NotPrime: {p} is not prime")
        if e < 1:
            raise ValueError(f"degree must be >= 1, got {e}")
        if p**e > MAX_ORDER:
            raise ValueError(f"TooLarge: {p}^{e} exceeds {MAX_ORDER}")
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            self.modulus: tuple[int, ...] = (0, 1)  # x - 0; arithmetic is mod p
        else:
            for cand in _monic_polys(e, p):
                if _is_irreducible(cand, p):
                    self.modulus = tuple(cand)
                    break

    # -- element <-> integer bijection (base-p digits, low digit first)

    def index(self, i: int) -> Element:
        if not 0 <= i < self.q:
            raise ValueError(f"OutOfRange: index {i} not in [0, {self.q})")
        digits = []
        for _ in range(self.e):
            digits.append(i % self.p)
            i //= self.p
        return tuple(digits)

    def rank(self, a: Element) -> int:
        self._check(a)
        out = 0
        for d in reversed(a):
            out = out * self.p + d
        return out

    def _check(self, a: Element) -> None:
        if len(a) != self.e or any(not 0 <= c < self.p for c in a):
            raise ValueError(f"OutOfRange: {a!r} is not an element of GF({self.p}^{self.e})")

    # -- arithmetic

    def add(self, a: Element, b: Element) -> Element:
        self._check(a)
        self._check(b)
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a: Element, b: Element) -> Element:
        self._check(a)
        self._check(b)
        prod = _pmul(list(a), list(b), self.p)
        _, rem = _pdivmod(prod, list(self.modulus), self.p)
        rem += [0] * (self.e - len(rem))
        return tuple(rem)

    def __repr__(self) -> str:
        return f"GField({self.p}, {self.e})"

