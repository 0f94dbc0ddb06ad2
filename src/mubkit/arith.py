"""Integer factorization, the prime-power test and the MOLS width they give.

The planner needs only factorize and the MOLS width from the MOLS side, so
they sit apart from latin: a plan with no imported squares loads neither
Latin squares nor finite fields.  factorize trial-divides by 2, 3 and 5,
then walks a mod-30 wheel over the numbers prime to 30, 8 of every 30
integers; it keeps no prime table, so importing the module computes
nothing.
"""

import itertools


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division by 2, 3 and 5, then by the
    numbers prime to 30 (steps from 7 reach 11, 13, ..., 31, 37),
    ascending primes."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = []
    for p in itertools.chain((2, 3, 5), itertools.accumulate(
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
