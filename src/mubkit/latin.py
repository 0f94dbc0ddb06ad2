"""Latin squares and mutually orthogonal sets of them (MOLS).

A Latin square of order s is an s x s grid over symbols 0..s-1 with every
symbol exactly once per row and per column.  Two squares are orthogonal when
superimposing them yields every ordered symbol pair exactly once.  A set of
pairwise orthogonal squares (MOLS) of order s can hold at most s - 1 squares;
that cap is enforced at construction together with pairwise orthogonality,
so holding a MolsSet is proof of the property.

No square above MAX_ORDER = 256 is built or read (TooLarge), so every
symbol fits in one byte: a square is its rows as bytes, the one form that
the checks, the net and the writers read.  Rows given as bytes are kept,
and a grid of lists, tuples or bytearrays is copied into byte rows on
construction, so editing it later changes no square.  The checks run on
byte rows in C builtins: a grid is Latin when deleting its symbols from
its cells leaves nothing and every row and every column has s distinct
bytes, and squares A and B are orthogonal when the rows
bytes.maketrans(A_i, B_i), which map each symbol of A to the symbol of B
in the same cell, have columns of s distinct bytes.  These hold for any
input.  Only a grid or pair that fails them is walked cell by cell, to
name the first failing row, column or repeated pair; a grid the walk
accepts but whose cells are not integers is refused, so every square has
byte rows.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import repeat
import os

from . import serial
from .arith import constructive_mols_count, factorize
from .record import checked_make

# The largest order of a square built here: the side of net.MAX_POINTS, so
# no larger grid can become a net.
MAX_ORDER = 256


def bound_order(s: int) -> None:
    """TooLarge for an order above MAX_ORDER, the one refusal of every
    square, field table, MOLS file and net read as squares."""
    if s > MAX_ORDER:
        raise ValueError(f"TooLarge: order {s} exceeds {MAX_ORDER}")


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


# The symbols 0..255; _SYMBOLS[:s] are those of a square of order s.
_SYMBOLS = bytes(range(MAX_ORDER))


def _byte_rows(grid, s: int) -> tuple[bytes, ...] | None:
    """The rows of grid as bytes when it holds s rows of s integer cells in
    0..255, else None.  Rows that are all exactly bytes, immutable already,
    are kept as they are; any other rows are copied."""
    try:  # through tuple, since bytes(n) is n zero bytes
        rows = tuple(grid if set(map(type, grid)) == {bytes} else map(bytes, map(tuple, grid)))
    except (TypeError, ValueError):  # a cell that is not a byte value
        return None
    return rows if set(map(len, rows)) == {s} else None


def _distinct(rows, sym: bytes) -> bool:
    """Every item of rows holds len(sym) distinct bytes: the table that
    maps its k-th byte to k maps it back onto sym only then."""
    tables = map(bytes.maketrans, rows, repeat(sym))
    return b"".join(map(bytes.translate, rows, tables)) == sym * len(rows)


def _is_latin(rows: tuple[bytes, ...]) -> bool:
    """The s byte rows form a Latin square: no byte outside 0..s-1, and s
    distinct bytes in every row and every column."""
    s = len(rows)
    sym = _SYMBOLS[:s]
    flat = b"".join(rows)
    return (not flat.translate(None, sym) and _distinct(rows, sym)
            and _distinct([flat[c::s] for c in range(s)], sym))


def _orthogonal(rows_a: tuple[bytes, ...], rows_b: tuple[bytes, ...]) -> bool:
    """Latin squares a and b (as byte rows) are orthogonal: the 256-byte
    table bytes.maketrans(a_i, b_i) maps each symbol of row i of a to the
    symbol of b in the same cell, so entry x of the s tables, one per row,
    must be s distinct bytes for every symbol x."""
    s = len(rows_a)
    table = b"".join(map(bytes.maketrans, rows_a, rows_b))
    return _distinct([table[x::256] for x in range(s)], _SYMBOLS[:s])


def _latin_witness(grid, s: int) -> None:
    """The cell walk: raise NotLatinError at the first short or long row,
    row that is not a permutation of 0..s-1, or such column."""
    symbols = set(range(s))
    for r, row in enumerate(grid):
        if len(row) != s:
            raise NotLatinError(f"row {r} has length {len(row)}, want {s}", row=r)
        if set(row) != symbols:
            raise NotLatinError(f"row {r} is not a permutation of 0..{s - 1}", row=r)
    for c, col in enumerate(zip(*grid)):
        if set(col) != symbols:
            raise NotLatinError(f"column {c} is not a permutation of 0..{s - 1}", col=c)


class LatinSquare(namedtuple("LatinSquare", "grid")):
    """A Latin square of order s, held as its s checked rows of bytes:
    grid[i][j] is the int symbol in cell (i, j).  Rows given as bytes are
    kept, and any other grid is copied into byte rows, so the square never
    shares the caller's lists."""

    __slots__ = ()

    def __new__(cls, grid: Sequence[Sequence[int]]) -> "LatinSquare":
        s = len(grid)
        if s == 0:
            raise NotLatinError("empty grid")
        bound_order(s)
        rows = _byte_rows(grid, s)
        if rows is None or not _is_latin(rows):
            _latin_witness(grid, s)
            # on integer cells the byte checks and the walk agree, so only
            # cells equal to 0..s-1 that are not integers get here
            raise NotLatinError("cells must be integers")
        return tuple.__new__(cls, (rows,))

    _make = classmethod(checked_make)

    @property
    def order(self) -> int:
        return len(self.grid)


def _orthogonality_witness(a: LatinSquare, b: LatinSquare) -> tuple[int, int]:
    """The first repeated ordered pair in row-major cell order of squares
    a and b that are not orthogonal."""
    seen: set[tuple[int, int]] = set()
    for pair in zip(b"".join(a.grid), b"".join(b.grid)):
        if pair in seen:
            return pair
        seen.add(pair)


class MolsSet(namedtuple("MolsSet", "order squares")):
    """Pairwise orthogonal Latin squares of a common order, held as a
    tuple whatever sequence or iterable they come in."""

    __slots__ = ()

    def __new__(cls, order: int, squares: Iterable[LatinSquare] = ()) -> "MolsSet":
        s = order
        squares = tuple(squares)
        if s < 1:
            raise ValueError(f"order must be >= 1, got {s}")
        for idx, sq in enumerate(squares):
            if sq.order != s:
                raise ValueError(f"OrderMismatch: square {idx} has order {sq.order}, set has {s}")
        cap = max(s - 1, 0)
        if len(squares) > cap:
            raise ValueError(f"{len(squares)} MOLS of order {s} is impossible (max {cap})")
        for i in range(len(squares)):
            for j in range(i + 1, len(squares)):
                if not _orthogonal(squares[i].grid, squares[j].grid):
                    raise NotOrthogonalError(i, j, _orthogonality_witness(squares[i], squares[j]))
        return tuple.__new__(cls, (order, squares))

    _make = classmethod(checked_make)

    @property
    def width(self) -> int:
        return len(self.squares)


def cyclic_square(s: int) -> LatinSquare:
    """The addition table grid[i][j] = (i + j) mod s; Latin for every s >= 1."""
    if s < 1:
        raise ValueError(f"order must be >= 1, got {s}")
    bound_order(s)
    sym = _SYMBOLS[:s]
    return LatinSquare(tuple(sym[i:] + sym[:i] for i in range(s)))


def complete_mols_prime_power(q: int) -> MolsSet:
    """The complete set of q - 1 MOLS of prime-power order q.

    Square a (a nonzero field element) is grid[i][j] = a*x_i + x_j computed in
    GF(q), with x_i the field element of rank i.  Squares are listed with a
    in rank order 1..q-1.  Row i of square a is row mul[a][i] of the
    addition table.
    """
    from .galois import field_tables

    add, mul = field_tables(q)
    return MolsSet(q, (LatinSquare(tuple(map(add.__getitem__, mul[a])))
                       for a in range(1, q)))


def macneish_product(a: MolsSet, b: MolsSet) -> MolsSet:
    """Direct product: min(w_a, w_b) MOLS of order s_a * s_b.

    Cells and symbols compose row-major: the pair (x, y) of an order-s_a item
    and an order-s_b item becomes x * s_b + y.
    """
    if a.width == 0 or b.width == 0:
        raise ValueError("EmptyInput: MacNeish product needs at least one square on each side")
    s1, s2 = a.order, b.order
    s = s1 * s2
    if s > MAX_ORDER:
        raise ValueError(f"TooLarge: order {s1}*{s2} = {s} exceeds {MAX_ORDER}")
    w = min(a.width, b.width)
    squares = []
    for t in range(w):
        ga, gb = a.squares[t].grid, b.squares[t].grid
        grid = tuple(
            bytes(ga[i1][j1] * s2 + gb[i2][j2] for j1 in range(s1) for j2 in range(s2))
            for i1 in range(s1)
            for i2 in range(s2)
        )
        squares.append(LatinSquare(grid))
    return MolsSet(s, squares)


def best_mols_width(s: int, imported: MolsSet | None = None) -> int:
    """The width of best_mols(s, imported), found without building a square:
    the imported set's when it has order s and is wider than
    constructive_mols_count(s), the width of every set built here, else
    that count."""
    w = constructive_mols_count(s)
    if imported is not None and imported.order == s and imported.width > w:
        return imported.width
    return w


def best_mols(s: int, imported: MolsSet | None = None) -> MolsSet:
    """A concrete MOLS set of order s realizing the constructive bound.

    Uses the imported set when it is wider than anything buildable here
    (see best_mols_width).
    """
    if s < 2:
        raise ValueError(f"order must be >= 2, got {s}")
    if best_mols_width(s, imported) > constructive_mols_count(s):
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


def mols_from_dict(data: object) -> MolsSet:
    serial.expect(isinstance(data, dict), "MOLS document must be a JSON object")
    serial.expect(set(data) == {"order", "squares"},
                  'MOLS document needs exactly the keys "order" and "squares"')
    order = data["order"]
    serial.expect(serial.is_int(order) and order >= 1, '"order" must be a positive integer')
    bound_order(order)  # before any square is read
    raw = data["squares"]
    serial.expect(isinstance(raw, list), '"squares" must be a list')
    squares = []
    for idx, grid in enumerate(raw):
        serial.expect(serial.is_int_rows(grid), f"square {idx} must be a list of integer rows")
        serial.expect(len(grid) == order and set(map(len, grid)) == {order},
                      f"square {idx} must be {order}x{order}")
        try:
            squares.append(LatinSquare(grid))
        except NotLatinError as exc:
            raise NotLatinError(str(exc), square=idx, row=exc.row, col=exc.col) from None
    return MolsSet(order, squares)  # re-raises NotOrthogonalError with indices


def import_mols(path: str | os.PathLike) -> MolsSet:
    """Load and fully re-verify a MOLS file; rejection is all-or-nothing."""
    return mols_from_dict(serial.read_json(path))


def export_mols(m: MolsSet, path: str | os.PathLike) -> None:
    serial.write_json(path, mols_to_dict(m))
