"""Nets: k blocks of s disjoint 0/1 vectors over s^2 points.

A (k,s)-net is k blocks, each holding s incidence vectors of length d = s^2
and weight s, such that supports within a block are pairwise disjoint and
supports from different blocks share exactly one point.  Bits are packed
into a Python int per vector, so dot products are exact popcounts.

verify_net reads the net back as MOLS first (_read_mols).  When every
weight is s and each block's supports cover all d points, each block is a
partition; blocks 0 and 1 then meet pairwise once exactly when the point
in row vector i and column vector j is one point per cell (i, j), a later
block meets each row and column vector once exactly when its symbols,
read in cell order, form a Latin square, and two later blocks meet
pairwise once exactly when their squares are orthogonal.  So a net whose
read-back succeeds has no pair to report, and only one that fails it is
walked pair by pair, so its report names every failing pair.

The classical correspondence: w MOLS of order s give a net with k = w + 2
blocks (rows of the grid, columns of the grid, then one block per square,
whose vectors are the level sets of each symbol), and any net with k >= 2
blocks can be read back by using blocks 0 and 1 as coordinates.
"""

from __future__ import annotations

import functools
import os
from collections import namedtuple

from . import serial
from .latin import MAX_ORDER, LatinSquare, MolsSet, bound_order
from .record import checked_make

# net_from_mols writes (w + 2) * s vectors of s^2 bits each, and a MOLS
# document of any order may hold no squares, so the grid is bounded.
MAX_POINTS = MAX_ORDER**2


class IncidenceVector(namedtuple("IncidenceVector", "length bits")):
    """0/1 vector of a fixed length with bits packed into one int."""

    # no __slots__: the cached support lives in the instance __dict__

    def __new__(cls, length: int, bits: int) -> "IncidenceVector":
        if length < 0 or bits < 0 or bits >> length:
            raise ValueError(f"bits out of range for length {length}")
        return tuple.__new__(cls, (length, bits))

    _make = classmethod(checked_make)

    def __getstate__(self) -> None:
        # a pickle holds the fields alone, not the cached support
        return None

    @staticmethod
    def from_bits01(text: str) -> "IncidenceVector":
        # int() would also take "_" and spaces, so the check comes first
        if set(text) - {"0", "1"}:
            raise ValueError("incidence string must contain only 0 and 1")
        # character p is bit p: the reversed string is the binary numeral
        return IncidenceVector(len(text), int(text[::-1] or "0", 2))

    def to_bits01(self) -> str:
        # a leading 1 at bit length keeps the high zeros, and length 0 works
        return bin(self.bits | 1 << self.length)[3:][::-1]

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    @functools.cached_property
    def support(self) -> tuple[int, ...]:
        # cached: verify_net and build_mubs both walk each support.
        # One str.find per set bit, lowest first, on the reversed binary
        # numeral, whose character p is bit p (see from_bits01).
        text = bin(self.bits)[:1:-1]
        out = []
        p = text.find("1")
        while p >= 0:
            out.append(p)
            p = text.find("1", p + 1)
        return tuple(out)


class Net(namedtuple("Net", "s blocks")):
    __slots__ = ()

    def __new__(cls, s: int, blocks: tuple[tuple[IncidenceVector, ...], ...]) -> "Net":
        if s < 1:
            raise ValueError(f"s must be >= 1, got {s}")
        d = s * s
        if len(blocks) > s + 1:
            raise ValueError(f"{len(blocks)} blocks exceeds the bound s + 1 = {s + 1}")
        for b, block in enumerate(blocks):
            if len(block) != s:
                raise ValueError(f"block {b} has {len(block)} vectors, want {s}")
            for vec in block:
                if vec.length != d:
                    raise ValueError(f"block {b} holds a vector of length {vec.length}, want {d}")
        return tuple.__new__(cls, (s, blocks))

    _make = classmethod(checked_make)

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def d(self) -> int:
        return self.s * self.s


class NetViolation(namedtuple("NetViolation", "kind block index block2 index2 detail",
                              defaults=(None, None, ""))):
    # kind: "weight" | "within-block" | "cross-block"
    __slots__ = ()

    def sort_key(self):
        return (self.block, self.index,
                -1 if self.block2 is None else self.block2,
                -1 if self.index2 is None else self.index2, self.kind)


class NetReport(namedtuple("NetReport", "s k violations")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _owners(block: tuple[IncidenceVector, ...], d: int) -> list[int | None]:
    """For each of the d points, the index of the block's vector holding
    it, or None."""
    owner: list[int | None] = [None] * d
    for j, vec in enumerate(block):
        for p in vec.support:
            owner[p] = j
    return owner


def _read_mols(net: Net) -> MolsSet | None:
    """The k - 2 MOLS that net spells, or None when it is no net: when a
    weight is not s, a block leaves a point uncovered, two points share a
    (row, column) cell, or a later block's symbols in cell order are not
    MOLS.  The (row, column) cell of each point comes from blocks 0 and 1,
    and the symbol of a later block at that cell is the index of its
    vector holding the point."""
    s, d = net.s, net.d
    if any(vec.weight != s for block in net.blocks for vec in block):
        return None
    owners = [_owners(block, d) for block in net.blocks]
    if any(None in owner for owner in owners):
        return None
    if net.k < 2:
        return MolsSet(s)
    point: list[int | None] = [None] * d  # cell i*s + j -> its one point
    for p, (i, j) in enumerate(zip(owners[0], owners[1])):
        point[i * s + j] = p
    if None in point:
        return None
    try:
        return MolsSet(s, (
            LatinSquare(tuple(bytes(map(owner.__getitem__, point[r:r + s]))
                              for r in range(0, d, s)))
            for owner in owners[2:]))
    except ValueError:  # NotLatinError, NotOrthogonalError, a symbol over 255
        return None


def _pairwise_violations(net: Net) -> list[NetViolation]:
    """The within-block and cross-block violations, one dot product per
    pair of vectors."""
    out = []
    # Net fixes every length at s^2, so the dots need no length check.
    bits = [[vec.bits for vec in block] for block in net.blocks]
    for b in range(net.k):
        for c in range(b, net.k):
            want = 0 if b == c else 1
            for i, ub in enumerate(bits[b]):
                start = i + 1 if b == c else 0
                for j, vb in enumerate(bits[c][start:], start):
                    got = (ub & vb).bit_count()
                    if got != want:
                        kind = "within-block" if b == c else "cross-block"
                        out.append(NetViolation(kind, b, i, c, j, f"dot {got}, want {want}"))
    return out


def verify_net(net: Net) -> NetReport:
    """Check every weight, every within-block pair, every cross-block pair.

    A net that _read_mols reads back as MOLS has no pair to report; only
    one that it refuses is walked pair by pair, so its report lists every
    failing pair."""
    out: list[NetViolation] = []
    for b, block in enumerate(net.blocks):
        for i, vec in enumerate(block):
            if vec.weight != net.s:
                out.append(NetViolation("weight", b, i, detail=f"weight {vec.weight}, want {net.s}"))
    if _read_mols(net) is None:
        out.extend(_pairwise_violations(net))
    out.sort(key=NetViolation.sort_key)
    return NetReport(net.s, net.k, tuple(out))


def net_from_mols(m: MolsSet) -> Net:
    """Net with w + 2 blocks: rows, columns, then one block per square.

    Cell (i, j) of the grid is point i*s + j.  Within each block vectors are
    listed in ascending row / column / symbol order.  Row i is s bits
    from point i*s on, column j the bits j, s + j, ...; one sweep over a
    square's cells sets each cell's bit in the vector of its symbol.
    """
    s = m.order
    d = s * s
    if d > MAX_POINTS:
        raise ValueError(f"TooLarge: {s}^2 points exceeds {MAX_POINTS}")
    col = sum(1 << i * s for i in range(s))
    blocks = [tuple(IncidenceVector(d, ((1 << s) - 1) << i * s) for i in range(s)),
              tuple(IncidenceVector(d, col << j) for j in range(s))]
    for sq in m.squares:
        bits = [0] * s  # a LatinSquare of order s holds the symbols 0..s-1
        for p, v in enumerate(b"".join(sq.grid)):
            bits[v] |= 1 << p
        blocks.append(tuple(IncidenceVector(d, b) for b in bits))
    return Net(s, tuple(blocks))


def mols_from_net(net: Net) -> MolsSet:
    """Read k - 2 MOLS back out of a net (see _read_mols).

    Blocks 0 and 1 coordinatize: row i, column j meet in the single common
    point of their supports.  Each remaining block becomes a square whose
    symbol at (i, j) is the index of the vector covering that point.
    """
    if net.k < 2:
        raise ValueError(f"TooFewBlocks: need at least 2 blocks, got {net.k}")
    if net.k > 2:  # no square above the order bound is built
        bound_order(net.s)
    m = _read_mols(net)
    if m is None:
        raise ValueError("Inconsistent: net fails verification")
    return m


# -- serialization: {"s": int, "k": int, "blocks": [["0/1 string"]]}

def net_to_dict(net: Net) -> dict:
    return {
        "s": net.s,
        "k": net.k,
        "blocks": [[vec.to_bits01() for vec in block] for block in net.blocks],
    }


def net_from_dict(data: object) -> Net:
    serial.expect(isinstance(data, dict), "net document must be a JSON object")
    serial.expect(set(data) == {"s", "k", "blocks"},
                  'net document needs exactly the keys "s", "k" and "blocks"')
    s, k, raw = data["s"], data["k"], data["blocks"]
    serial.expect(serial.is_int(s) and s >= 1, '"s" must be a positive integer')
    bound_order(s)  # before any block is read, as net_from_mols bounds its grid
    serial.expect(serial.is_int(k) and k >= 0, '"k" must be a non-negative integer')
    serial.expect(isinstance(raw, list) and len(raw) == k, '"blocks" must list exactly k blocks')
    d = s * s
    blocks = []
    for b, block in enumerate(raw):
        serial.expect(
            isinstance(block, list) and all(isinstance(x, str) for x in block),
            f"block {b} must be a list of strings",
        )
        vecs = []
        for i, text in enumerate(block):
            serial.expect(len(text) == d and not set(text) - {"0", "1"},
                          f"block {b} vector {i} must be a 0/1 string of length {d}")
            vecs.append(IncidenceVector.from_bits01(text))
        blocks.append(tuple(vecs))
    try:
        return Net(s, tuple(blocks))
    except ValueError as exc:
        raise serial.ParseError(str(exc)) from None


def load_net(path: str | os.PathLike) -> Net:
    """Load a net file; shape is validated here, content via verify_net."""
    return net_from_dict(serial.read_json(path))


def save_net(net: Net, path: str | os.PathLike) -> None:
    serial.write_json(path, net_to_dict(net))
