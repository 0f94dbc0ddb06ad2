"""Latin squares and mutually orthogonal sets of them (MOLS).

A Latin square of order s is an s x s grid over symbols 0..s-1 with every
symbol exactly once per row and per column.  Two squares are orthogonal when
superimposing them yields every ordered symbol pair exactly once.  A set of
pairwise orthogonal squares (MOLS) of order s can hold at most s - 1 squares;
that cap is enforced at construction together with pairwise orthogonality,
so holding a MolsSet is proof of the property.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
import os

from . import serial
from .galois import GField, prime_power


class NotLatinError(ValueError):
    """A grid is not a Latin square; coordinates point at the repeat."""

    def __init__(self, detail: str, square: int | None = None,
                 row: int | None = None, col: int | None = None):
        super().__init__(detail if square is None else f"square {square}: {detail}")
        self.square = square
        self.row = row
        self.col = col


class NotOrthogonalError(ValueError):
    """Two squares in a set repeat an ordered symbol pair."""

    def __init__(self, i: int, j: int, pair: tuple[int, int]):
        super().__init__(f"squares {i} and {j} are not orthogonal: pair {pair} repeats")
        self.i = i
        self.j = j
        self.pair = pair


@dataclass(frozen=True)
class LatinSquare:
    grid: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        s = len(self.grid)
        if s == 0:
            raise NotLatinError("empty grid")
        symbols = set(range(s))
        for r, row in enumerate(self.grid):
            if len(row) != s:
                raise NotLatinError(f"row {r} has length {len(row)}, want {s}", row=r)
            if set(row) != symbols:
                raise NotLatinError(f"row {r} is not a permutation of 0..{s - 1}", row=r)
        for c, col in enumerate(zip(*self.grid)):
            if set(col) != symbols:
                raise NotLatinError(f"column {c} is not a permutation of 0..{s - 1}", col=c)

    @property
    def order(self) -> int:
        return len(self.grid)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.grid[i]


def square_of(rows: list[list[int]]) -> LatinSquare:
    return LatinSquare(tuple(tuple(r) for r in rows))


def _cell_pairs(a: LatinSquare, b: LatinSquare):
    return zip(chain.from_iterable(a.grid), chain.from_iterable(b.grid))


def _orthogonality_witness(a: LatinSquare, b: LatinSquare) -> tuple[int, int] | None:
    """None when a and b are orthogonal, else the first repeated ordered
    pair in row-major cell order."""
    if len(set(_cell_pairs(a, b))) == a.order * a.order:
        return None
    seen: set[tuple[int, int]] = set()
    for pair in _cell_pairs(a, b):
        if pair in seen:
            return pair
        seen.add(pair)
    return None


@dataclass(frozen=True)
class MolsSet:
    """Pairwise orthogonal Latin squares of a common order."""

    order: int
    squares: tuple[LatinSquare, ...] = ()

    def __post_init__(self) -> None:
        s = self.order
        if s < 1:
            raise ValueError(f"order must be >= 1, got {s}")
        for idx, sq in enumerate(self.squares):
            if sq.order != s:
                raise ValueError(f"OrderMismatch: square {idx} has order {sq.order}, set has {s}")
        cap = max(s - 1, 0)
        if len(self.squares) > cap:
            raise ValueError(f"{len(self.squares)} MOLS of order {s} is impossible (max {cap})")
        for i in range(len(self.squares)):
            for j in range(i + 1, len(self.squares)):
                pair = _orthogonality_witness(self.squares[i], self.squares[j])
                if pair is not None:
                    raise NotOrthogonalError(i, j, pair)

    @property
    def width(self) -> int:
        return len(self.squares)


def cyclic_square(s: int) -> LatinSquare:
    """The addition table grid[i][j] = (i + j) mod s; Latin for every s >= 1."""
    if s < 1:
        raise ValueError(f"order must be >= 1, got {s}")
    return LatinSquare(tuple(tuple((i + j) % s for j in range(s)) for i in range(s)))


def complete_mols_prime_power(q: int) -> MolsSet:
    """The complete set of q - 1 MOLS of prime-power order q.

    Square a (a nonzero field element) is grid[i][j] = a*x_i + x_j computed in
    GF(q), with x_i the i-th field element in rank order.  Squares are listed
    with a in rank order 1..q-1.
    """
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"NotPrimePower: {q}")
    fld = GField(*pp)
    elems = [fld.index(i) for i in range(q)]
    squares = []
    for a_rank in range(1, q):
        a = elems[a_rank]
        grid = tuple(
            tuple(fld.rank(fld.add(fld.mul(a, elems[i]), elems[j])) for j in range(q))
            for i in range(q)
        )
        squares.append(LatinSquare(grid))
    return MolsSet(q, tuple(squares))


def macneish_product(a: MolsSet, b: MolsSet) -> MolsSet:
    """Direct product: min(w_a, w_b) MOLS of order s_a * s_b.

    Cells and symbols compose row-major: the pair (x, y) of an order-s_a item
    and an order-s_b item becomes x * s_b + y.
    """
    if a.width == 0 or b.width == 0:
        raise ValueError("EmptyInput: MacNeish product needs at least one square on each side")
    s1, s2 = a.order, b.order
    s = s1 * s2
    w = min(a.width, b.width)
    squares = []
    for t in range(w):
        ga, gb = a.squares[t].grid, b.squares[t].grid
        grid = tuple(
            tuple(ga[i1][j1] * s2 + gb[i2][j2] for j1 in range(s1) for j2 in range(s2))
            for i1 in range(s1)
            for i2 in range(s2)
        )
        squares.append(LatinSquare(grid))
    return MolsSet(s, tuple(squares))


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, ascending primes."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def constructive_mols_count(s: int) -> int:
    """MacNeish lower bound: min over prime-power parts p^e of s of p^e - 1."""
    if s < 2:
        return 0
    return min(p**e - 1 for p, e in factorize(s))


# Wilson's bound: every order from WILSON_MIN_ORDER on admits at least
# WILSON_MOLS MOLS.
WILSON_MIN_ORDER = 76
WILSON_MOLS = 6


def best_mols(s: int, imported: MolsSet | None = None) -> MolsSet:
    """A concrete MOLS set of order s realizing the constructive bound.

    Uses the imported set when it is wider than anything buildable here.
    """
    if s < 2:
        raise ValueError(f"order must be >= 2, got {s}")
    if imported is not None and imported.order == s and imported.width > constructive_mols_count(s):
        return imported
    parts = [p**e for p, e in factorize(s)]
    out = complete_mols_prime_power(parts[0])
    for q in parts[1:]:
        out = macneish_product(out, complete_mols_prime_power(q))
    return out


# -- serialization: {"order": int, "squares": [[[int]]]}

def mols_to_dict(m: MolsSet) -> dict:
    return {
        "order": m.order,
        "squares": [[list(row) for row in sq.grid] for sq in m.squares],
    }


def _is_int_rows(grid: object) -> bool:
    """A list of lists whose cells all pass serial.is_int.  A valid decoded
    JSON grid holds plain ints only, so one pass over the cell types accepts
    it; the per-cell test decides any grid holding another type."""
    if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
        return False
    if set(map(type, chain.from_iterable(grid))) <= {int}:
        return True
    return all(serial.is_int(x) for row in grid for x in row)


def mols_from_dict(data: object) -> MolsSet:
    serial.expect(isinstance(data, dict), "MOLS document must be a JSON object")
    serial.expect(set(data) == {"order", "squares"},
                  'MOLS document needs exactly the keys "order" and "squares"')
    order = data["order"]
    serial.expect(serial.is_int(order) and order >= 1, '"order" must be a positive integer')
    raw = data["squares"]
    serial.expect(isinstance(raw, list), '"squares" must be a list')
    squares = []
    for idx, grid in enumerate(raw):
        serial.expect(_is_int_rows(grid), f"square {idx} must be a list of integer rows")
        serial.expect(
            len(grid) == order and all(len(row) == order for row in grid),
            f"square {idx} must be {order}x{order}",
        )
        try:
            squares.append(square_of(grid))
        except NotLatinError as exc:
            raise NotLatinError(str(exc), square=idx, row=exc.row, col=exc.col) from None
    return MolsSet(order, tuple(squares))  # re-raises NotOrthogonalError with indices


def import_mols(path: str | os.PathLike) -> MolsSet:
    """Load and fully re-verify a MOLS file; rejection is all-or-nothing."""
    return mols_from_dict(serial.read_json(path))


def export_mols(m: MolsSet, path: str | os.PathLike) -> None:
    serial.write_json(path, mols_to_dict(m))
