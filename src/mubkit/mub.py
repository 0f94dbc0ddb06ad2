"""Mutually unbiased bases built from nets and generalized Hadamard matrices.

A vector here is sparse: s amplitudes placed on the support of a net
incidence vector, each amplitude a root of unity taken from one row of a
generalized Hadamard matrix, with overall scale 1/sqrt(norm_sq).  Block b
of a (k,s)-net yields one basis of C^(s^2) holding s*s vectors (incidence
vector index outer, Hadamard row index inner), and the k blocks give k
mutually unbiased bases.  build_mubs verifies the net and the matrix,
whose constructors already fix every support and row, so it builds its
vectors unchecked, each (position, exponent) pair once in a table no
larger than the set, shared by every vector that holds it; embed places
one row through the checked constructor.

Two vectors from different bases share exactly one support point, so their
unscaled inner product S is a single root of unity and |S|^2 / (nu * nv) =
1/s^2 on the nose; pairs from the same basis either have disjoint supports
(S = 0) or differ only in the Hadamard row, where row orthogonality makes S
vanish.  Verification re-derives all of this from scratch for any set,
without assuming how the set was produced.

The exact verifier first builds per-basis tables: each basis's vectors
grouped by (support, norm_sq), and each vector's exponents packed once
into bytes over its whole support, one field per position.  One codec per
root order (_row_codec) fixes the field width, 8 bits up to m = 128 and
16 above, and packs, compares and reads back rows; rows stay bytes
throughout.  It decides a pair of groups at once wherever a ring identity
allows it: two supports that meet in one point give S a single root of
unity, so d*S*conj(S) = d, and the whole product of the two groups is
unbiased exactly when nu*nv = d; disjoint supports give S = 0.  Within a
basis it visits only the groups that share a position, read from lists
of the groups per position.  Every other overlapping pair of groups, a group
with itself included, is decided by one function on the positions the two
share: it sorts each side's rows there, the packed rows or the bytes of
their fields on those positions, into phase classes, rows equal up to one
constant exponent, which fixes S up to a unit, tests one pair of
representatives per pair of classes, and copies each verdict to the
member pairs.  A representative pair's key is one integer addition of two
rows read as integers, read back sorted (for 8-bit fields as
bytes(sorted(key.to_bytes(n, order).translate(MOD_M))), a 256-byte table
MOD_M reducing each byte mod m), and each distinct vector of sorted
differences is tested once per call in the cyclotomic group ring.  Across
bases a ring identity takes most of those pairs: when the class keys of
both groups, read as offsets from each side's first key, form one
subgroup H of n rows (the bases of the Wootters-Fields and
Klappenecker-Roetteler sets, orbits of a character group, are such
cosets), every pair of classes has the differences delta + h for some h
in H, each h as often, so n keys decide all n*n pairs; a failing key, a
set that is no subgroup or two different sets fall back to the pair
walk.  The closure check runs only there, once per distinct tuple of
keys and per distinct H.  A group paired with itself is also decided
once per distinct row block, kept under the tuple of its bytes rows,
which fixes every S among its vectors wherever the support lies.
A net set has one block, the Hadamard matrix's rows, on all k*s
supports, so its within-basis pass makes C(s, 2) zero tests, and every
cross-basis pair of groups meets in one point.  A root order above
MAX_ROOT_ORDER is refused before any ring work.  The walk yields verdict
blocks, two groups with their failing pairs or all their pairs, and one
expander makes the report.  The exact oracle runs in one process, since
its tables, phase classes, offset groups and memo serve every pair of
bases; only the float oracle spreads basis pairs over worker processes.

The float oracle (tolerance 1e-9) stays brute force, summing every inner
product numerically term by term, so it cross-checks these shortcuts
independently.  Within a basis it touches only the pairs j > i that share
a position.  Across bases it sums u's products with all of basis c into a
dense list; if basis c has one norm and every |S|^2 in the list lies
within TOL/2 of nu*nv/d, found by min and max, the list passes at once,
and otherwise each pair is checked on its own, so the violations and their
details do not depend on the shortcut.

Amplitudes are stored either as integer exponents against a root order
(exact route) or as complex numbers (float-only documents, which are read
and verified but never built or tensored here).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import os
import sys
from array import array
from collections import namedtuple
from collections.abc import Sequence

from . import serial
from .cyclotomic import MAX_ROOT_ORDER, TOL, _check_order, unbiased, vanishes
from .record import checked_make

# Verification needs neither net nor hadamard: build_mubs, the one function
# that takes a net.Net and a hadamard.GenHadamard, imports them itself.

# A loaded norm_sq, and each part of a loaded float amplitude, may be at most
# this large: far above what any valid vector holds, and small enough that
# no float the float oracle computes from them overflows.
MAX_MAGNITUDE = 1 << 32
# A loaded document, a built set and a tensor product may hold at most this
# many vectors and amplitudes in all, so every set built here loads back.
# The complete s = 32 set (33 * 1024 vectors, 1,081,344 amplitudes) fits;
# verifying it peaks at about 240 MB, and the sparsest document at the
# vector bound, one basis of 40,000 one-point vectors, at 148 MB (mub
# verify, whole process).
MAX_VECTORS = 40_000
MAX_AMPLITUDES = 1_250_000
# Keys the exact pass remembers per verify_mubs call.
_MEMO_LIMIT = 1 << 12


class VerificationFailedError(ValueError):
    """Raised when imported data fails verification; carries the report."""

    def __init__(self, report: "MubReport"):
        self.report = report
        super().__init__(
            f"verification failed in {report.mode} mode: {len(report.violations)} violations"
        )


class MubVector(namedtuple("MubVector", "dim root_order norm_sq amps amps_float")):
    """Sparse vector: amplitudes on a support, scaled by 1/sqrt(norm_sq).

    Exactly one of amps (pairs (position, exponent) against root_order) and
    amps_float (pairs (position, complex amplitude)) is set.
    """

    __slots__ = ()

    def __new__(cls, dim: int, root_order: int, norm_sq: int,
                amps: tuple[tuple[int, int], ...] | None = None,
                amps_float: tuple[tuple[int, complex], ...] | None = None) -> "MubVector":
        if dim < 1 or root_order < 1 or norm_sq < 1:
            raise ValueError("dim, root_order and norm_sq must be positive")
        if (amps is None) == (amps_float is None):
            raise ValueError("exactly one of amps and amps_float must be given")
        entries = amps if amps is not None else amps_float
        last = -1
        for pos, value in entries:
            if not 0 <= pos < dim:
                raise ValueError(f"position {pos} out of range for dim {dim}")
            if pos <= last:
                raise ValueError("positions must be strictly increasing")
            last = pos
            if amps is not None and not 0 <= value < root_order:
                raise ValueError(f"exponent {value} out of range for root order {root_order}")
        return tuple.__new__(cls, (dim, root_order, norm_sq, amps, amps_float))

    _make = classmethod(checked_make)

    @property
    def is_exact(self) -> bool:
        return self.amps is not None

    def amp_map(self) -> dict[int, int]:
        assert self.amps is not None
        return dict(self.amps)

    def float_map(self) -> dict[int, complex]:
        if self.amps is not None:
            m = self.root_order
            return {pos: cmath.exp(2j * cmath.pi * e / m) for pos, e in self.amps}
        return dict(self.amps_float)


class MubBasis(namedtuple("MubBasis", "vectors")):
    __slots__ = ()


class MubSet(namedtuple("MubSet", "dim bases")):
    # no __slots__: the cached properties live in the instance __dict__

    def __new__(cls, dim: int, bases: tuple[MubBasis, ...]) -> "MubSet":
        if len(bases) > dim + 1:
            raise ValueError(f"{len(bases)} bases in dimension {dim} exceeds the bound d + 1")
        for b, basis in enumerate(bases):
            if len(basis.vectors) != dim:
                raise ValueError(f"basis {b} has {len(basis.vectors)} vectors, want {dim}")
            for vec in basis.vectors:
                if vec.dim != dim:
                    raise ValueError(f"basis {b} holds a vector of dim {vec.dim}, want {dim}")
        return tuple.__new__(cls, (dim, bases))

    _make = classmethod(checked_make)

    @property
    def k(self) -> int:
        return len(self.bases)

    # cached: both walk every vector, and verification, rendering and
    # export ask for them repeatedly; each walk is one C-level map pass
    @functools.cached_property
    def is_exact(self) -> bool:
        return None not in map(_AMPS, _vectors(self))

    @functools.cached_property
    def root_order(self) -> int:
        # float-only vectors take no part in the lcm
        return math.lcm(*{vec.root_order for vec in _vectors(self) if vec.amps is not None})


_FIRST, _SECOND = operator.itemgetter(0), operator.itemgetter(1)
_NORM_SQ, _ROOT_ORDER = operator.attrgetter("norm_sq"), operator.attrgetter("root_order")
_AMPS, _VECTORS = operator.attrgetter("amps"), operator.attrgetter("vectors")


def _vectors(x: MubSet) -> list[MubVector]:
    """Every vector of x, basis by basis."""
    return list(itertools.chain.from_iterable(map(_VECTORS, x.bases)))


def _bound_size(vectors: int, amplitudes: int) -> None:
    """TooLarge for a set too large to load back (see MAX_VECTORS)."""
    for count, limit, noun in ((vectors, MAX_VECTORS, "vectors"),
                               (amplitudes, MAX_AMPLITUDES, "amplitudes")):
        if count > limit:
            raise ValueError(f"TooLarge: {count} {noun} exceed the limit {limit}")


def bound_build(k: int, s: int) -> None:
    """TooLarge for k bases of C^(s^2) from a net and an s x s Hadamard
    matrix, k*s^2 vectors of s amplitudes each, when the set could not be
    loaded back (see MAX_VECTORS)."""
    _bound_size(k * s * s, k * s**3)


def embed(row: Sequence[int], root_order: int, support_vec: IncidenceVector) -> MubVector:
    """Place the exponents of one Hadamard row, each in 0..root_order-1, on
    the support of a 0/1 vector.

    Entry l of the row lands at the l-th smallest support position.
    """
    support = support_vec.support
    if len(row) != len(support):
        raise ValueError(f"WeightMismatch: row length {len(row)} vs support weight {len(support)}")
    return MubVector(support_vec.length, root_order, len(row), tuple(zip(support, row)))


def _pair_table(d: int, m: int, amplitudes: int) -> list[list[tuple[int, int]]] | None:
    """table[p][e] is the one (p, e) tuple that every vector placing
    exponent e < m at position p < d shares; None when its d*m tuples
    would outnumber the amplitudes it serves, so a table never holds more
    tuples than a set holds amplitudes."""
    if d * m > amplitudes:
        return None
    return [[(p, e) for e in range(m)] for p in range(d)]


def build_mubs(net: Net, had: GenHadamard) -> MubSet:
    """k mutually unbiased bases of C^(s^2) from a (k,s)-net and an s x s
    generalized Hadamard matrix.

    A set of more than MAX_VECTORS vectors or MAX_AMPLITUDES amplitudes is
    refused (TooLarge), and both inputs are verified first.  Basis b holds, for incidence vector i
    of block b and Hadamard row l, the embedding of row l on vector i
    (i outer, l inner), scaled by 1/sqrt(s).
    """
    from .hadamard import verify_hadamard
    from .net import verify_net

    if had.size != net.s:
        raise ValueError(f"SizeMismatch: hadamard size {had.size} vs net order {net.s}")
    bound_build(net.k, net.s)
    if not verify_net(net).ok:
        raise ValueError("UnverifiedInput: net fails verification")
    if not verify_hadamard(had).ok:
        raise ValueError("UnverifiedInput: hadamard matrix fails verification")
    # Every MubVector invariant holds already: each support is s increasing
    # positions below d (IncidenceVector, verify_net) and each row s
    # exponents in 0..m-1 (GenHadamard).  The set holds k*s^3 = k*s*d
    # amplitudes, so the pair table is shared when m <= k*s, as for
    # dft(s); otherwise each vector holds its own pairs, as a loaded set of
    # that shape does.
    m, s, d, rows = had.root_order, net.s, net.d, had.exponents
    supports = [vec.support for block in net.blocks for vec in block]
    table = _pair_table(d, m, net.k * s * d)
    new = tuple.__new__
    vectors = []
    if table is not None:
        for support in supports:
            cells = list(map(table.__getitem__, support))
            vectors.extend([new(MubVector, (d, m, s, tuple(map(operator.getitem, cells, row)),
                                            None)) for row in rows])
    else:
        for support in supports:
            vectors.extend([new(MubVector, (d, m, s, tuple(zip(support, row)), None))
                            for row in rows])
    # s incidence vectors times s rows per basis
    return MubSet(dim=d, bases=tuple(MubBasis(tuple(vectors[t:t + d]))
                                     for t in range(0, len(vectors), d)))


def standard_basis(d: int) -> MubSet:
    """The single computational basis of C^d."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    vecs = tuple(MubVector(dim=d, root_order=1, norm_sq=1, amps=((p, 0),)) for p in range(d))
    return MubSet(dim=d, bases=(MubBasis(vecs),))


class MubViolation(namedtuple("MubViolation", "kind basis index basis2 index2 detail",
                              defaults=("",))):
    # kind: "norm" | "orthogonality" | "unbiasedness"
    __slots__ = ()

    def pair(self) -> tuple[int, int, int, int]:
        return (self.basis, self.index, self.basis2, self.index2)

    def sort_key(self):
        return (self.basis, self.index, self.basis2, self.index2, self.kind)


class MubReport(namedtuple("MubReport", "mode dim k violations")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def failing_pairs(self) -> frozenset[tuple[int, int, int, int]]:
        return frozenset(v.pair() for v in self.violations)


def _exact_tables(x: MubSet):
    """Per basis: its groups, for each (support, norm_sq) in order of first
    appearance (mask, norm, positions, us, rows): the support as a bitmask
    and as increasing positions, the indices us of its vectors, and their
    rows, each vector's exponents lifted to the set root order and packed
    once over the whole support into bytes (see _row_codec)."""
    m = x.root_order
    pack = _row_codec(m).pack
    tables = []
    for basis in x.bases:
        vecs = basis.vectors
        amps_list = [vec.amps for vec in vecs]
        exps = map(map, itertools.repeat(_SECOND), amps_list)
        if not all(map(m.__eq__, map(_ROOT_ORDER, vecs))):
            exps = itertools.starmap(map, zip(
                [(m // vec.root_order).__mul__ for vec in vecs], exps))
        rows = list(map(pack, exps))
        # keyed by the support's positions: a mask 1 << p hashes to
        # 2**(p % 61) on 64-bit builds, so masks would crowd the dict.
        # One dict step per run of equal keys, as a built basis lists each
        # support's vectors together; a key seen again later joins its group.
        keys = list(zip(map(tuple, map(map, itertools.repeat(_FIRST), amps_list)),
                        map(_NORM_SQ, vecs)))
        index: dict[tuple[tuple[int, ...], int], list[int]] = {}
        for key, run in itertools.groupby(range(len(keys)), keys.__getitem__):
            index.setdefault(key, []).extend(run)
        groups = [(sum(map((1).__lshift__, positions)), norm, positions, us,
                   tuple(map(rows.__getitem__, us)))
                  for (positions, norm), us in index.items()]
        tables.append(groups)
    return m, tables


def _float_tables(x: MubSet):
    """Per basis: amplitude dicts; per position, the indices of the vectors
    holding it, in increasing order, with their conjugated amplitudes in a
    parallel list; the norms, and their common value or None."""
    tables = []
    for basis in x.bases:
        maps = [vec.float_map() for vec in basis.vectors]
        idx: list[list[int]] = [[] for _ in range(x.dim)]
        conj: list[list[complex]] = [[] for _ in range(x.dim)]
        for j, amp in enumerate(maps):
            for pos, a in amp.items():
                idx[pos].append(j)
                conj[pos].append(a.conjugate())
        norms = [vec.norm_sq for vec in basis.vectors]
        common = norms[0] if norms.count(norms[0]) == len(norms) else None
        tables.append((maps, idx, conj, norms, common))
    return tables


def _check_norms_float(x: MubSet, b: int, maps) -> list[MubViolation]:
    out = []
    for i, vec in enumerate(x.bases[b].vectors):
        amp = maps[i]
        off_unit = max((abs(abs(a) - 1.0) for a in amp.values()), default=0.0)
        norm = sum(abs(a) ** 2 for a in amp.values()) / vec.norm_sq
        if off_unit >= TOL or abs(norm - 1.0) >= TOL:
            out.append(MubViolation("norm", b, i, b, i,
                                    f"|u|^2 = {norm:.12f}, max unit deviation {off_unit:.3e}"))
    return out


_RowCodec = namedtuple("_RowCodec", "size pack phase_key m_ones reduce sorted_diffs")


@functools.lru_cache(maxsize=None)
def _row_codec(m: int) -> _RowCodec:
    """How rows are laid out at root order m, built once per m and shared
    by every verify_mubs call at that order.  A row is bytes, one field of
    size bytes per position, each the narrowest unsigned array item that
    holds 2m - 1: 8 bits up to m = 128, 16 bits above, which hold it for
    every m up to MAX_ROOT_ORDER.  This is the module's one choice between
    the two widths.

    pack(exps) is the row of an iterable of exponents.  phase_key(row) is
    the row of the row's exponents, each minus the first, mod m: equal for
    two rows exactly when they differ by one constant exponent mod m; for
    8-bit fields that is the row translated through one of m 256-byte
    tables, v -> (v - c) % m for a first exponent c.  m_ones(n) is the
    n-byte row with m in every field, read as an integer.  A key is a sum
    of rows read as integers whose fields stay below 2m (see
    _group_pair_failures); reduce(key, n) is the n-byte row of its fields
    mod m, and sorted_diffs(key, n) those fields sorted, as bytes for
    8-bit fields (the key's bytes translated through a 256-byte table
    v -> v % m) and as a tuple for 16-bit ones.  C builtins do the
    per-field work."""
    order = sys.byteorder
    if 2 * m - 1 < 256:
        mod_m = bytes(v % m for v in range(256))
        shift = [bytes((v - c) % m for v in range(256)) for c in range(m)]
        return _RowCodec(1, bytes, lambda row: row.translate(shift[row[0]]),
                         lambda n: int.from_bytes(bytes([m]) * n, order),
                         lambda key, n: key.to_bytes(n, order).translate(mod_m),
                         lambda key, n: bytes(sorted(key.to_bytes(n, order).translate(mod_m))))

    def phase_key(row):
        items = array("H", row)
        return array("H", map(m.__rmod__, map(operator.sub, items,
                                              itertools.repeat(items[0])))).tobytes()

    size = array("H").itemsize

    def m_ones(n):
        return int.from_bytes(array("H", [m] * (n // size)).tobytes(), order)

    def reduce(key, n):
        return array("H", map(m.__rmod__, array("H", key.to_bytes(n, order)))).tobytes()

    def sorted_diffs(key, n):
        return tuple(sorted(map(m.__rmod__, array("H", key.to_bytes(n, order)))))
    return _RowCodec(size, lambda exps: array("H", exps).tobytes(), phase_key, m_ones, reduce,
                     sorted_diffs)


def _memo_test(memo: dict, m: int, d: int, tag, diffs) -> bool:
    """The ring test of a pair with the sorted exponent differences diffs
    (see _row_codec) at root order m in C^d, chosen by tag: S = 0,
    vanishes(m, diffs), for tag None, and d*S*conj(S) = nu*nv,
    unbiased(m, diffs, d, tag), for the integer tag nu*nv.  The verdict is
    remembered for the rest of one verify_mubs call under (tag, diffs).

    The sorted differences alone decide S, so a remembered verdict is
    exact, and pairs whose packed keys differ only in whole turns or in the
    order of the positions share it.  At most _MEMO_LIMIT entries are
    stored, which bounds memory on unstructured input.
    """
    hit = memo.get((tag, diffs))
    if hit is None:
        hit = vanishes(m, diffs) if tag is None else unbiased(m, diffs, d, tag)
        if len(memo) < _MEMO_LIMIT:
            memo[tag, diffs] = hit
    return hit


def _phase_classes(m: int, cache: dict, group, common: int):
    """(width, reps, negs, members, keys): the rows of group (see
    _exact_tables) on the n >= 1 positions of the bitmask common, width
    bytes each, sorted into phase classes (see _row_codec) in order of
    first appearance.  members lists each class's local indices, keys
    holds its phase key, reps holds the row of its first member as one
    integer and negs holds m*ONES - rep for each, ONES having a 1 in every
    field.

    Rows on the group's whole support are the packed rows themselves, and
    their classes are built once per group and kept in cache under the
    group's id for the rest of one verify_mubs call.  Other rows are the
    bytes of the packed rows' fields on the common positions."""
    mask, _, positions, _, rows = group
    whole = common == mask
    if whole:
        hit = cache.get(id(group))
        if hit is not None:
            return hit
    codec = _row_codec(m)
    if not whole:
        size = codec.size
        keep = [i * size + j for i, p in enumerate(positions) if common >> p & 1
                for j in range(size)]
        rows = [bytes(map(row.__getitem__, keep)) for row in rows]
    width = len(rows[0])
    index: dict = {}
    for a, key in enumerate(map(codec.phase_key, rows)):
        index.setdefault(key, []).append(a)
    members = list(index.values())
    order = sys.byteorder
    reps = [int.from_bytes(rows[c[0]], order) for c in members]
    m_ones = codec.m_ones(width)
    out = (width, reps, [m_ones - rep for rep in reps], members, tuple(index))
    if whole:
        cache[id(group)] = out
    return out


def _offset_group(m: int, cache: dict, keys: tuple, width: int):
    """The offsets of the phase keys keys (see _phase_classes), each key
    minus the first field by field mod m, as a dict from each offset's row
    to its integer in the order of keys, when they form a set H closed
    under subtraction, a subgroup of the rows mod m; None when they do
    not.  Deciding closure costs len(keys)**2 one-addition keys.  The
    answer is kept in cache under keys, and the closure verdict under the
    frozenset H, so groups whose classes are cosets of one H pay for it
    once; both are stored only while cache holds fewer than _MEMO_LIMIT
    entries, which bounds memory on unstructured input."""
    hit = cache.get(keys, False)
    if hit is not False:
        return hit
    codec = _row_codec(m)
    order = sys.byteorder
    m_ones = codec.m_ones(width)
    neg = m_ones - int.from_bytes(keys[0], order)
    rows = [codec.reduce(int.from_bytes(key, order) + neg, width) for key in keys]
    offsets = dict(zip(rows, [int.from_bytes(h, order) for h in rows]))
    members = frozenset(rows)
    closed = cache.get(members)
    if closed is None:
        negs = [m_ones - h for h in offsets.values()]
        closed = all(codec.reduce(h + g, width) in offsets
                     for h in offsets.values() for g in negs)
    out = offsets if closed else None
    if len(cache) < _MEMO_LIMIT:
        cache[keys] = out
        cache[members] = closed
    return out


def _group_pair_failures(m: int, d: int, memo: dict, cache: dict, tag,
                         gu, gv, common: int) -> tuple[tuple[int, int], ...]:
    """The local pairs (a, t) of the support groups gu and gv (see
    _exact_tables), vector us[a] of gu against vs[t] of gv, in increasing
    order, that fail _memo_test(memo, m, d, tag, diffs), decided on the
    positions of the bitmask common.

    Each side's rows on those positions are sorted into phase classes (see
    _phase_classes).  Moving u or v within its class multiplies S by a
    unit w^c, which changes neither S = 0 nor |S|^2, so one pair of
    representatives decides each pair of classes and its verdict holds for
    every member pair.  A representative pair's key is ru + (m*ONES - rv),
    so each field holds e_u - e_v + m, in 1..2m-1: the v side cannot
    borrow since every e_v < m, and the sum cannot carry, so one integer
    addition gives a key that fixes the exponent differences, and hence S,
    exactly.

    Across bases the class keys can settle more.  Read each side's keys as
    offsets from its first key, field by field mod m (see _offset_group).
    When both sides have n >= 2 classes and their offsets form one
    subgroup H, class pair (a, t) has the key differences
    delta + (h_a - h'_t), delta = key_u[0] - key_v[0], and h_a - h'_t runs
    over H, each value for n pairs.  So the n keys delta + h, h in H, each
    field reduced mod m before the addition and so at most 2m - 2, decide
    all n*n class pairs: when they all pass, no pair fails.  A failing key
    and every other pair of groups take the walk above.

    A group paired with itself (gv is gu) gives the pairs a < t only.  Two
    members of one class differ by a constant c on all n >= 1 positions,
    so S = n*w^(-c) != 0 and they fail with no test.  These verdicts depend
    on the tuple of packed rows alone, wherever the support lies, so they
    are remembered in memo under that tuple, at most _MEMO_LIMIT entries
    as in _memo_test; a bytes row carries its own length.  The key never
    equals a (tag, diffs) key of _memo_test, whose tag is None or an int,
    never bytes.  That is the only block a valid construction repeats; no
    other group pair is remembered whole.
    """
    same = gv is gu
    if same:
        block = gu[4]
        failures = memo.get(block)
        if failures is not None:
            return failures
    codec = _row_codec(m)
    diffs_of = codec.sorted_diffs
    width, reps_u, _, members_u, keys_u = _phase_classes(m, cache, gu, common)
    _, _, negs_v, members_v, keys_v = _phase_classes(m, cache, gv, common)
    if not same and len(keys_u) == len(keys_v) > 1:
        offsets = _offset_group(m, cache, keys_u, width)
        if offsets is not None and offsets == _offset_group(m, cache, keys_v, width):
            order = sys.byteorder
            delta = int.from_bytes(codec.reduce(int.from_bytes(keys_u[0], order)
                                                + codec.m_ones(width)
                                                - int.from_bytes(keys_v[0], order), width), order)
            if all(_memo_test(memo, m, d, tag, diffs_of(delta + h, width))
                   for h in offsets.values()):
                return ()
    failures = [(ca, ct) for ca, ru in enumerate(reps_u)
                for ct in range(ca + 1 if same else 0, len(negs_v))
                if not _memo_test(memo, m, d, tag, diffs_of(ru + negs_v[ct], width))]
    if len(members_u) < len(gu[3]) or len(members_v) < len(gv[3]):
        pairs = [(a, t) for ca, ct in failures for a in members_u[ca] for t in members_v[ct]]
        if same:
            pairs = [(a, t) if a < t else (t, a) for a, t in pairs]
            pairs.extend(itertools.chain.from_iterable(
                itertools.combinations(c, 2) for c in members_u))
        failures = sorted(pairs)
    failures = tuple(failures)
    if same and len(memo) < _MEMO_LIMIT:
        memo[block] = failures
    return failures


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, written as an integer when it is one."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _pair_violations_exact(x: MubSet, m: int, tables, memo: dict, cache: dict, b: int, c: int):
    """Verdict blocks (kind, detail, us, vs, pairs) between bases b and c,
    walked one pair of support groups at a time (see verify_mubs): us[a]
    fails against vs[t] for each (a, t) in pairs, or for every a and t
    where pairs is None.  memo and cache (see _memo_test and
    _phase_classes) serve one call."""
    d = x.dim
    groups_b, groups_c = tables[b], tables[c]

    if b == c:
        for _, norm, positions, us, _ in groups_b:
            if len(positions) != norm:
                for i in us:
                    yield "norm", f"|u|^2 = {len(positions)}/{norm}", (i,), (i,), None

        # holders[pos] lists the groups that hold pos, in increasing order;
        # only the groups sharing a position are visited
        holders: dict[int, list[int]] = {}
        for g, group in enumerate(groups_b):
            for pos in group[2]:
                holders.setdefault(pos, []).append(g)
        for g, gu in enumerate(groups_b):
            low = g if len(gu[3]) > 1 else g + 1  # one vector makes no pair with itself
            for h in sorted({h for pos in gu[2] for h in holders[pos] if h >= low}):
                gv = groups_b[h]
                yield "orthogonality", "S(u, v) != 0", gu[3], gv[3], _group_pair_failures(
                    m, d, memo, cache, None, gu, gv, gu[0] & gv[0])
        return

    # Unbiasedness asks |S|^2 = nu*nv/d, decided as d*S*conj(S) = nu*nv in
    # the ring, which needs no division.
    for gu in groups_b:
        mask_u, nu, _, us, _ = gu
        for gv in groups_c:
            mask_v, nv, _, vs, _ = gv
            common = mask_u & mask_v
            overlap = common.bit_count()
            if overlap == 1 and nu * nv == d:
                continue  # S is one root of unity, so d*S*conj(S) = d = nu*nv
            target = _ratio(nu * nv, d)
            detail = f"|S|^2 = 0, want {target}" if overlap == 0 else f"|S|^2 != {target}"
            # no shared point, or one at nu*nv != d, fails every pair at once
            yield "unbiasedness", detail, us, vs, None if overlap < 2 else _group_pair_failures(
                m, d, memo, cache, nu * nv, gu, gv, common)


def _block_violations(b: int, c: int, blocks) -> list[MubViolation]:
    """The MubViolations of the verdict blocks between bases b and c (see
    _pair_violations_exact); within a basis the lower index comes first."""
    out = []
    for kind, detail, us, vs, pairs in blocks:
        for i, j in (itertools.product(us, vs) if pairs is None
                     else [(us[a], vs[t]) for a, t in pairs]):
            if b == c and j < i:
                i, j = j, i
            out.append(MubViolation(kind, b, i, c, j, detail))
    return out


def _pair_violations_float(x: MubSet, tables, b: int, c: int) -> list[MubViolation]:
    """Violations between bases b and c, every inner product summed term by
    term in the order of u's positions (see verify_mubs)."""
    out = []
    d = x.dim
    maps_b, _, _, norms_b, _ = tables[b]
    _, idx_c, conj_c, norms_c, common = tables[c]
    if b == c:
        # Sparse: only the partners j > i that share a position are touched.
        out.extend(_check_norms_float(x, b, maps_b))
        for i, amp_u in enumerate(maps_b):
            nu = norms_b[i]
            partners: dict[int, complex] = {}
            for pos, au in amp_u.items():
                for j, cv in zip(idx_c[pos], conj_c[pos]):
                    if j > i:
                        partners[j] = partners.get(j, 0j) + au * cv
            for j in sorted(partners):
                dev = abs(partners[j]) ** 2 / (nu * norms_c[j])
                if dev >= TOL:
                    out.append(MubViolation("orthogonality", b, i, c, j,
                                            f"|<u,v>|^2 = {dev:.3e}"))
        return out
    # Dense: S(u, v_j) accumulates in acc[j] for every j.  When basis c has
    # one norm nv, a list whose every |S|^2 lies within TOL/2 of nu*nv/d
    # passes at once; any other list is checked pair by pair.
    if common is not None:
        low, high = (1.0 / d - TOL / 2) * common, (1.0 / d + TOL / 2) * common
    for i, amp_u in enumerate(maps_b):
        nu = norms_b[i]
        acc = [0j] * d
        for pos, au in amp_u.items():
            for j, cv in zip(idx_c[pos], conj_c[pos]):
                acc[j] += au * cv
        if common is not None:
            a = list(map(abs, acc))
            if min(a) ** 2 > low * nu and max(a) ** 2 < high * nu:
                continue
        for j, s_val in enumerate(acc):
            dev = abs(abs(s_val) ** 2 / (nu * norms_c[j]) - 1.0 / d)
            if dev >= TOL:
                out.append(MubViolation("unbiasedness", b, i, c, j,
                                        f"| |<u,v>|^2 - 1/d | = {dev:.3e}"))
    return out


# The float pool's per-process state: each worker builds its tables once.
_WORKER_STATE: dict = {}


def _init_worker(x: MubSet) -> None:
    _WORKER_STATE["args"] = (x, _float_tables(x))


def _run_pair(task: tuple[int, int]) -> list[MubViolation]:
    return _pair_violations_float(*_WORKER_STATE["args"], *task)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity is missing on some platforms
        return os.cpu_count() or 1


def verify_mubs(x: MubSet, mode: str = "exact", jobs: int = 1) -> MubReport:
    """Check norms, within-basis orthogonality and cross-basis unbiasedness
    for every pair of vectors, from scratch.

    mode "exact" needs exponent amplitudes everywhere, with a set root
    order of at most MAX_ROOT_ORDER (TooLarge above), and decides each
    condition in the cyclotomic group ring: orthogonality as S = 0 and
    unbiasedness as d*S*conj(S) = nu*nv, which needs no division.  It walks
    pairs of support groups, not pairs of vectors: a cross-basis pair of
    supports meeting in one point is settled for all its vector pairs by
    S*conj(S) = 1, disjoint supports by S = 0, the pairs inside one group
    once per distinct block of rows, and other overlaps once per pair of
    phase classes, rows equal up to a constant exponent, each distinct
    exponent-difference vector once.  Across bases, two groups whose n
    classes are cosets of one subgroup of rows, as in the quadratic-phase
    sets of prime dimension and their tensor products, take n tests for
    their n*n pairs of classes, and fall back to the pairs when one fails.
    mode "float" computes every inner product numerically and compares it
    against tolerance 1e-9; a vector whose products with a whole basis all
    lie within half that tolerance passes at once.  In float mode jobs > 1
    spreads basis pairs across up to that many processes, capped at the
    usable CPUs and the basis pairs; the exact oracle always runs in this
    process, where its tables, classes and memo serve every basis pair.
    The report is identical for any job count, and jobs < 1 is refused.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f'mode must be "exact" or "float", got {mode!r}')
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if mode == "exact":
        if not x.is_exact:
            raise ValueError("ExactUnavailable: set has float-only amplitudes")
        _check_order(x.root_order)
    tasks = [(b, c) for b in range(x.k) for c in range(b, x.k)]
    workers = min(jobs, len(tasks), _usable_cpus())
    if mode == "exact":
        m, tables = _exact_tables(x)
        memo: dict = {}
        cache: dict = {}
        chunks = [_block_violations(b, c, _pair_violations_exact(x, m, tables, memo, cache, b, c))
                  for b, c in tasks]
    elif workers > 1:
        import multiprocessing  # only parallel float runs pay for its import

        ctx = multiprocessing.get_context("fork" if os.name == "posix" else None)
        with ctx.Pool(workers, _init_worker, (x,)) as pool:
            chunks = pool.map(_run_pair, tasks)
    else:
        tables = _float_tables(x)
        chunks = [_pair_violations_float(x, tables, b, c) for b, c in tasks]
    violations = sorted((v for chunk in chunks for v in chunk), key=MubViolation.sort_key)
    return MubReport(mode=mode, dim=x.dim, k=x.k, violations=tuple(violations))


def tensor_mubs(a: MubSet, b: MubSet) -> MubSet:
    """Combine exact sets for dimensions dA and dB into min(kA, kB) bases of
    C^(dA*dB): vector (u, v) has amplitude u_p * v_q at position p*dB + q.

    Both inputs are expected to be verified; a float-only factor is refused
    (ExactUnavailable).  A factor of dimension 1 acts as the identity: the
    other set comes back unchanged.  A product whose root order (the lcm of
    the two) exceeds MAX_ROOT_ORDER, or that would hold more than
    MAX_VECTORS vectors or MAX_AMPLITUDES amplitudes, is refused (TooLarge)
    before any vector is built.
    """
    if not a.bases or not b.bases:
        raise ValueError("EmptyInput: both sets need at least one basis")
    if not (a.is_exact and b.is_exact):
        raise ValueError("ExactUnavailable: a factor has float-only amplitudes")
    if a.dim == 1:
        return b
    if b.dim == 1:
        return a
    k = min(a.k, b.k)
    d = a.dim * b.dim
    m = math.lcm(a.root_order, b.root_order)
    if m > MAX_ROOT_ORDER:
        raise ValueError(
            f"TooLarge: root order {m} of the product exceeds the limit {MAX_ROOT_ORDER}")
    _bound_size(k * d, sum(sum(len(u.amps) for u in a.bases[t].vectors)
                           * sum(len(v.amps) for v in b.bases[t].vectors) for t in range(k)))
    bases = []
    for t in range(k):
        vecs = []
        for u in a.bases[t].vectors:
            fu = m // u.root_order
            for v in b.bases[t].vectors:
                fv = m // v.root_order
                amps = tuple((pu * b.dim + pv, (eu * fu + ev * fv) % m)
                             for pu, eu in u.amps for pv, ev in v.amps)
                vecs.append(MubVector(dim=d, root_order=m, norm_sq=u.norm_sq * v.norm_sq,
                                      amps=amps))
        bases.append(MubBasis(tuple(vecs)))
    return MubSet(dim=d, bases=tuple(bases))


# -- serialization -----------------------------------------------------------
#
# {"dim": d, "root_order": m, "bases": [[vector, ...], ...]} where vector is
# {"norm_sq": n, "amps": [[pos, exp], ...]} for exact amplitudes or
# {"norm_sq": n, "amps_float": [[pos, re, im], ...]} otherwise.

def _vector_json(vec: MubVector, m: int, pos_tok: list[str], exp_tok: list[str]) -> str:
    """The document text of a float vector, or of an exact one lifted from
    a root order below m (see mubs_to_json)."""
    if vec.amps is None:
        return serial.encode({"norm_sq": vec.norm_sq, "amps_float": [
            [pos, a.real, a.imag] for pos, a in vec.amps_float]})
    f = m // vec.root_order  # e < root_order, so e*f < m
    body = ",".join([pos_tok[p] + exp_tok[e * f] for p, e in vec.amps])
    return '{"amps":[' + body + '],"norm_sq":%d}' % vec.norm_sq


def mubs_to_json(x: MubSet) -> str:
    """The canonical document of x (sorted keys, no spaces, a final
    newline, as serial.dumps writes it), with every exact vector lifted to
    the set root order.

    Exact vectors are written from two token lists built once per set,
    "[p," for each position p < d and "e]" for each exponent e < m, so an
    amplitude costs two lookups and one concatenation.  A vector of root
    order m is written inline in its basis's comprehension; one lifted
    from a lower order, and a float vector, which goes through the JSON
    encoder, take _vector_json.  A set whose root order exceeds
    MAX_ROOT_ORDER could not be read back, and is refused (TooLarge).
    """
    m = x.root_order
    _check_order(m)
    # a set with no bases holds no vector, and its dim bounds nothing
    pos_tok = ["[%d," % p for p in range(x.dim if x.bases else 0)]
    exp_tok = ["%d]" % e for e in range(m)]
    bases = ",".join("[" + ",".join([
        '{"amps":[%s],"norm_sq":%d}' % (
            ",".join([pos_tok[p] + exp_tok[e] for p, e in vec.amps]), vec.norm_sq)
        if vec.root_order == m and vec.amps is not None
        else _vector_json(vec, m, pos_tok, exp_tok)
        for vec in basis.vectors]) + "]" for basis in x.bases)
    return '{"bases":[%s],"dim":%d,"root_order":%d}\n' % (bases, x.dim, m)


_EXACT_KEYS = frozenset(("norm_sq", "amps"))
_NORM_SQ_KEY, _AMPS_KEY = operator.itemgetter("norm_sq"), operator.itemgetter("amps")


def _exact_basis(basis: list, d: int, m: int, room: int):
    """(norms, lengths, pairs, positions, exponents) of basis, one basis of
    a loaded document of dimension d and root order m, when every vector is
    exact and MubVector(d, m, ...) accepts it as it stands, and the basis
    holds at most room amplitudes: objects with the keys "norm_sq" and
    "amps" alone, each norm_sq an int from 1 to MAX_MAGNITUDE, and
    [position, exponent] pairs of ints with exponents below m and, within
    each vector, increasing positions below d.  None when any check fails.

    Every check is one C-level pass over the whole basis, so a valid basis
    costs no Python step per vector or amplitude.  Position p of vector j
    is read as p + j*d, which increases through the basis exactly when
    each vector's positions increase within 0..d-1.  A basis this refuses
    takes the walk of mubs_from_dict, which names the first fault."""
    if not (set(map(type, basis)) <= {dict} and all(
            map(operator.eq, map(dict.keys, basis), itertools.repeat(_EXACT_KEYS)))):
        return None
    norms, amps = list(map(_NORM_SQ_KEY, basis)), list(map(_AMPS_KEY, basis))
    if not (set(map(type, norms)) <= {int} and min(norms, default=1) >= 1
            and max(norms, default=1) <= MAX_MAGNITUDE and set(map(type, amps)) <= {list}):
        return None
    lengths = list(map(len, amps))
    if sum(lengths) > room:
        return None
    pairs = list(itertools.chain.from_iterable(amps))
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        return None
    items = list(itertools.chain.from_iterable(pairs))
    if not set(map(type, items)) <= {int}:
        return None
    pos, exps = items[::2], items[1::2]
    if pos and not (min(pos) >= 0 and max(pos) < d and min(exps) >= 0 and max(exps) < m):
        return None
    keyed = list(map(operator.add, pos, itertools.chain.from_iterable(
        map(itertools.repeat, range(0, d * len(amps), d), lengths))))
    if not all(map(operator.lt, keyed, keyed[1:])):
        return None
    return norms, lengths, pairs, pos, exps


@serial.gc_paused
def mubs_from_dict(data: object) -> MubSet:
    """The MubSet of a decoded mub document, or a ParseError naming the
    first fault, past MAX_VECTORS or MAX_AMPLITUDES too.

    The cyclic garbage collector is paused while the set is built
    (serial.gc_paused, as for serial.read_json): the vectors and their
    amplitude tuples are acyclic, and a collection would walk the document
    too.  A basis that _exact_basis accepts is built unchecked, and every
    other basis is walked vector by vector and check by check.  Once a
    checked basis holds at least d*m amplitudes, its vectors and every
    later checked basis's share one (position, exponent) tuple per pair
    from _pair_table, as build_mubs does."""
    serial.expect(isinstance(data, dict), "mub document must be a JSON object")
    serial.expect(set(data) == {"dim", "root_order", "bases"},
                  'mub document needs exactly the keys "dim", "root_order" and "bases"')
    d, m, raw = data["dim"], data["root_order"], data["bases"]
    serial.expect(serial.is_int(d) and d >= 1, '"dim" must be a positive integer')
    serial.expect(serial.is_int(m) and m >= 1, '"root_order" must be a positive integer')
    serial.expect(m <= MAX_ROOT_ORDER, f'"root_order" {m} exceeds the limit {MAX_ROOT_ORDER}')
    serial.expect(isinstance(raw, list), '"bases" must be a list')
    bases = []
    vectors = amplitudes = 0
    new, table = tuple.__new__, None
    for bi, basis in enumerate(raw):
        serial.expect(isinstance(basis, list), f"basis {bi} must be a list")
        vectors += len(basis)
        serial.expect(vectors <= MAX_VECTORS,
                      f"the document holds more than {MAX_VECTORS} vectors")
        checked = _exact_basis(basis, d, m, MAX_AMPLITUDES - amplitudes)
        if checked is not None:
            norms, lengths, pairs, pos, exps = checked
            amplitudes += len(pairs)
            if table is None:
                table = _pair_table(d, m, len(pairs))
            cells = (map(tuple, pairs) if table is None
                     else map(operator.getitem, map(table.__getitem__, pos), exps))
            bases.append(MubBasis(tuple([
                new(MubVector, (d, m, n, tuple(itertools.islice(cells, k)), None))
                for n, k in zip(norms, lengths)])))
            continue
        vecs = []
        for vi, obj in enumerate(basis):
            where = f"basis {bi} vector {vi}"
            serial.expect(isinstance(obj, dict), f"{where} must be an object")
            serial.expect(
                set(obj) in ({"norm_sq", "amps"}, {"norm_sq", "amps_float"}),
                f'{where} needs "norm_sq" and exactly one of "amps", "amps_float"',
            )
            entries = obj.get("amps", obj.get("amps_float"))
            amplitudes += len(entries) if isinstance(entries, list) else 0
            serial.expect(amplitudes <= MAX_AMPLITUDES,
                          f"the document holds more than {MAX_AMPLITUDES} amplitudes")
            n = obj["norm_sq"]
            serial.expect(serial.is_int(n) and 1 <= n <= MAX_MAGNITUDE,
                          f'{where}: "norm_sq" must be an integer from 1 to 2**32')
            if "amps" in obj:
                serial.expect(
                    serial.is_int_rows(obj["amps"]) and set(map(len, obj["amps"])) <= {2},
                    f'{where}: "amps" must be a list of [position, exponent] pairs',
                )
                given = {"root_order": m, "amps": tuple(map(tuple, obj["amps"]))}
            else:
                serial.expect(
                    isinstance(obj["amps_float"], list) and all(
                        isinstance(t, list) and len(t) == 3
                        and serial.is_int(t[0])
                        and all(isinstance(z, (int, float)) and not isinstance(z, bool)
                                and abs(z) <= MAX_MAGNITUDE for z in t[1:])
                        for t in obj["amps_float"]
                    ),
                    f'{where}: "amps_float" must be a list of [position, re, im] triples'
                    ' with finite re and im of at most 2**32 in size',
                )
                given = {"root_order": 1, "amps_float": tuple(
                    (p, complex(re, im)) for p, re, im in obj["amps_float"])}
            try:
                vec = MubVector(dim=d, norm_sq=n, **given)
            except ValueError as exc:
                raise serial.ParseError(f"{where}: {exc}") from None
            vecs.append(vec)
        bases.append(MubBasis(tuple(vecs)))
    try:
        return MubSet(dim=d, bases=tuple(bases))
    except ValueError as exc:
        raise serial.ParseError(str(exc)) from None


def verified_from_dict(data: object) -> MubSet:
    """Parse and verify a mub document: exactly, or with the float oracle
    where it holds float-only amplitudes (x.is_exact tells which)."""
    x = mubs_from_dict(data)
    report = verify_mubs(x, mode="exact" if x.is_exact else "float")
    if not report.ok:
        raise VerificationFailedError(report)
    return x


def import_mubs(path) -> MubSet:
    """Load and verify a mub file; raises VerificationFailedError on bad data."""
    return verified_from_dict(serial.read_json(path))


def export_mubs(x: MubSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mubs_to_json(x))
