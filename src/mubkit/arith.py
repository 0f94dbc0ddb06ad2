"""Integer factorization, the prime-power test, the MOLS width they give,
and the byte-row tests of Latin squares.

The planner needs only factorize and the MOLS width from the MOLS side, so
they sit apart from latin: a plan with no imported squares loads neither
Latin squares nor finite fields.  factorize trial-divides by 2, 3 and 5,
then walks a mod-30 wheel over the numbers prime to 30, 8 of every 30
integers; below 7 * 7 = 49 no divisor past 5 can be needed, so it sets up
no wheel there.  It keeps no prime table, so importing the module computes
nothing.

The byte-row tests decide Latin rows and orthogonal squares in C builtins
on rows of at most 256 symbols held as bytes: _distinct(rows, sym) holds
when every row has len(sym) distinct bytes, and _orthogonal(a, b) when the
rows of a and b, read as two squares, hold every ordered symbol pair
once.  latin checks its squares with them, and mub's exact verifier its
net-shaped bases, whose supports read as byte rows of group indices are
the squares of a net, so mub verify loads neither latin nor net.
"""

import itertools

# The symbols 0..255; _SYMBOLS[:s] are those of a square of order s.
_SYMBOLS = bytes(range(256))


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division by 2, 3 and 5, then by the
    numbers prime to 30 (steps from 7 reach 11, 13, ..., 31, 37),
    ascending primes."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = []
    # below 49 every prime factor but the last is 2, 3 or 5
    for p in (2, 3, 5) if n < 49 else itertools.chain((2, 3, 5), itertools.accumulate(
            itertools.cycle((4, 2, 4, 2, 4, 6, 2, 6)), initial=7)):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p**e for a prime p and e >= 1, or None."""
    parts = factorize(n) if n >= 1 else []
    return parts[0] if len(parts) == 1 else None


def constructive_mols_count(s: int) -> int:
    """MacNeish lower bound: min over prime-power parts p^e of s of p^e - 1."""
    if s < 2:
        return 0
    return min(p**e - 1 for p, e in factorize(s))


def _distinct(rows, sym: bytes) -> bool:
    """Every item of rows holds len(sym) distinct bytes: the table that
    maps its k-th byte to k maps it back onto sym only then."""
    tables = map(bytes.maketrans, rows, itertools.repeat(sym))
    return b"".join(map(bytes.translate, rows, tables)) == sym * len(rows)


def _orthogonal(rows_a, rows_b) -> bool:
    """Latin squares a and b (as byte rows) are orthogonal: the 256-byte
    table bytes.maketrans(a_i, b_i) maps each symbol of row i of a to the
    symbol of b in the same cell, so entry x of the s tables, one per row,
    must be s distinct bytes for every symbol x."""
    s = len(rows_a)
    table = b"".join(map(bytes.maketrans, rows_a, rows_b))
    return _distinct([table[x::256] for x in range(s)], _SYMBOLS[:s])
