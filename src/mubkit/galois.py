"""Finite fields GF(p^e) as two rank tables, of order at most latin.MAX_ORDER.

An element is a coefficient vector of length e over Z_p, reduced modulo a
fixed monic irreducible modulus, and its rank is the integer whose base-p
digits, low digit first, are its coefficients, low degree first.  The
modulus is the lexicographically smallest monic irreducible of degree e,
coefficients compared low degree first, so every table is identical across
runs.  For e = 1 that convention picks x itself and arithmetic is plain
mod p.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator

from .arith import prime_power
from .latin import bound_order


def _pmod(a: list[int], b: list[int], p: int) -> list[int]:
    """The remainder of a divided by b over Z_p, without trailing zeros;
    b must be nonzero."""
    rem = [c % p for c in a]
    while rem and rem[-1] == 0:
        rem.pop()
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(rem) - db - 1, -1, -1):
        c = (rem[i + db] * inv_lead) % p
        if c:
            for j, bc in enumerate(b):
                rem[i + j] = (rem[i + j] - c * bc) % p
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _monic_polys(degree: int, p: int) -> Iterator[list[int]]:
    for lower in itertools.product(range(p), repeat=degree):
        yield list(lower) + [1]


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    # Exhaustive: no monic factor of degree 1..e/2 (degree 1: no root in Z_p).
    e = len(coeffs) - 1
    for d in range(1, e // 2 + 1):
        for g in _monic_polys(d, p):
            if not _pmod(coeffs, g, p):
                return False
    return True


def field_tables(q: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """(add, mul) for GF(q): add[a][b] and mul[a][b] are the ranks of a + b
    and a*b, for ranks a and b.  Rank 0 is zero and rank 1 is one.

    An order above latin.MAX_ORDER is refused (TooLarge, latin.bound_order),
    and so is one that is not a prime power (NotPrimePower), before any
    table is built.
    """
    bound_order(q)
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"NotPrimePower: {q}")
    p, e = pp
    modulus = [0, 1] if e == 1 else next(
        cand for cand in _monic_polys(e, p) if _is_irreducible(cand, p))
    weights = [p**i for i in range(e)]
    times_x = []  # rank(x*c) per rank c: c's coefficients moved up a degree, reduced
    for c in range(q):
        rem = _pmod([0] + [c // w % p for w in weights], modulus, p)
        times_x.append(sum(map(operator.mul, rem, weights)))
    # A rank c splits as c_0 + p*c' and the element as c_0 + x*c', so
    # a + b = (a_0 + b_0) + x*(a' + b') and a*b = b_0*a + x*(a*b'): every
    # entry is read from an earlier row or an earlier entry of its row.
    add = [tuple(range(q))]
    for a in range(1, q):
        up = add[a // p]
        add.append(tuple((a + b) % p + p * up[b // p] for b in range(q)))
    mul = []
    for a in range(q):
        row = [0]
        for b in range(1, q):
            row.append(add[row[-1]][a] if b < p else add[row[b % p]][times_x[row[b // p]]])
        mul.append(tuple(row))
    return add, mul
