"""Mutually unbiased bases built from nets and generalized Hadamard matrices.

A vector here is sparse: s amplitudes placed on the support of a net
incidence vector, each amplitude a root of unity taken from one row of a
generalized Hadamard matrix, with overall scale 1/sqrt(norm_sq).  Block b
of a (k,s)-net yields one basis of C^(s^2) holding s*s vectors (incidence
vector index outer, Hadamard row index inner), and the k blocks give k
mutually unbiased bases.

Two vectors from different bases share exactly one support point, so their
unscaled inner product S is a single root of unity and |S|^2 / (nu * nv) =
1/s^2 on the nose; pairs from the same basis either have disjoint supports
(S = 0) or differ only in the Hadamard row, where row orthogonality makes S
vanish.  Verification re-derives all of this from scratch for any set,
without assuming how the set was produced.

The exact verifier groups each basis's vectors by (support, norm_sq) and
decides a pair of groups at once wherever a ring identity allows it: two
supports that meet in one point give S a single root of unity, so
d*S*conj(S) = d, and the whole product of the two groups is unbiased
exactly when nu*nv = d; disjoint supports give S = 0.  Within a basis it
visits only the groups that share a position, found through a position ->
group index.  Every other overlapping pair of groups, a group with itself
included, is decided by one function on the positions the two share: it
packs each group's exponent rows once, adds two packed rows into one key
per vector pair, reads the exponent differences back sorted as
bytes(sorted(key.to_bytes(n, order).translate(MOD_M))), a 256-byte table
MOD_M reducing each byte mod m (a tuple from an array for 16-bit fields),
and tests each distinct vector of sorted differences once per call in the
cyclotomic group ring.  A group paired with itself is also decided once
per distinct row block: the tuple of its packed rows fixes every S among
its vectors wherever the support lies.  A net set has one block, the
Hadamard matrix's rows, on all k*s supports, so its within-basis pass
makes C(s, 2) zero tests.  A root order above MAX_ROOT_ORDER is refused
before any ring work.

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
import math
import operator
import os
import sys
from array import array
from collections import Counter, namedtuple
from typing import Sequence

from . import serial
from .cyclotomic import MAX_ROOT_ORDER, TOL, Cyclotomic, counts_to_cyclotomic
from .hadamard import GenHadamard, verify_hadamard
from .net import IncidenceVector, Net, verify_net
from .record import checked_make

# A loaded norm_sq, and each part of a loaded float amplitude, may be at most
# this large: far above what any valid vector holds, and small enough that
# no float the float oracle computes from them overflows.
MAX_MAGNITUDE = 1 << 32
# A loaded document, a built set and a tensor product may hold at most this
# many vectors and amplitudes in all, so every set built here loads back.
# The complete s = 32 set (33 * 1024 vectors, 1,081,344 amplitudes) fits;
# verifying it peaks at about 280 MB, and the sparsest document at the
# vector bound, one basis of 40,000 one-point vectors, at about 260 MB.
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
    # export ask for them repeatedly
    @functools.cached_property
    def is_exact(self) -> bool:
        return all(v.is_exact for basis in self.bases for v in basis.vectors)

    @functools.cached_property
    def root_order(self) -> int:
        return math.lcm(*{v.root_order for basis in self.bases for v in basis.vectors
                          if v.is_exact})


def _bound_size(vectors: int, amplitudes: int) -> None:
    """TooLarge for a set too large to load back (see MAX_VECTORS)."""
    for count, limit, noun in ((vectors, MAX_VECTORS, "vectors"),
                               (amplitudes, MAX_AMPLITUDES, "amplitudes")):
        if count > limit:
            raise ValueError(f"TooLarge: {count} {noun} exceed the limit {limit}")


def embed(row: Sequence[int], root_order: int, support_vec: IncidenceVector) -> MubVector:
    """Place the exponents of one Hadamard row, each in 0..root_order-1, on
    the support of a 0/1 vector.

    Entry l of the row lands at the l-th smallest support position.
    """
    w = support_vec.weight
    if len(row) != w:
        raise ValueError(f"WeightMismatch: row length {len(row)} vs support weight {w}")
    amps = tuple(zip(support_vec.support, row))
    return MubVector(dim=support_vec.length, root_order=root_order, norm_sq=w, amps=amps)


def build_mubs(net: Net, had: GenHadamard) -> MubSet:
    """k mutually unbiased bases of C^(s^2) from a (k,s)-net and an s x s
    generalized Hadamard matrix.

    A set of more than MAX_VECTORS vectors or MAX_AMPLITUDES amplitudes is
    refused (TooLarge), and both inputs are verified first.  Basis b holds, for incidence vector i
    of block b and Hadamard row l, the embedding of row l on vector i
    (i outer, l inner), scaled by 1/sqrt(s).
    """
    if had.size != net.s:
        raise ValueError(f"SizeMismatch: hadamard size {had.size} vs net order {net.s}")
    _bound_size(net.k * net.d, net.k * net.d * net.s)
    if not verify_net(net).ok:
        raise ValueError("UnverifiedInput: net fails verification")
    if not verify_hadamard(had).ok:
        raise ValueError("UnverifiedInput: hadamard matrix fails verification")
    m = had.root_order  # GenHadamard keeps every exponent in 0..m-1
    bases = tuple(
        MubBasis(tuple(embed(row, m, vec) for vec in block for row in had.exponents))
        for block in net.blocks
    )
    return MubSet(dim=net.d, bases=bases)


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
    """Per basis: amplitude dicts with exponents lifted to the set root order,
    plus the vector indices grouped by (support bitmask, norm_sq), groups in
    order of first appearance."""
    m = x.root_order
    tables = []
    for basis in x.bases:
        maps = []
        # keyed by the support's positions: a mask 1 << p hashes to
        # 2**(p % 61) on 64-bit builds, so masks would crowd the dict
        groups: dict[tuple[tuple[int, ...], int], list[int]] = {}
        for j, vec in enumerate(basis.vectors):
            f = m // vec.root_order
            amp = dict(vec.amps) if f == 1 else {pos: e * f for pos, e in vec.amps}
            maps.append(amp)
            groups.setdefault((tuple(amp), vec.norm_sq), []).append(j)
        tables.append((maps, [((sum(map((1).__lshift__, support)), norm), us)
                              for (support, norm), us in groups.items()]))
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


def _check_norms_exact(x: MubSet, b: int) -> list[MubViolation]:
    out = []
    for i, vec in enumerate(x.bases[b].vectors):
        if len(vec.amps) != vec.norm_sq:
            out.append(MubViolation("norm", b, i, b, i,
                                    f"|u|^2 = {len(vec.amps)}/{vec.norm_sq}"))
    return out


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


def _field_code(m: int) -> str:
    """Typecode of the narrowest unsigned array item that holds 2m - 1; 16
    bits hold it for every m up to MAX_ROOT_ORDER."""
    return "B" if 2 * m - 1 < 256 else "H"


def _row_packer(code: str, positions):
    """amp -> the exponents of amp at positions, one byte-aligned field
    (array item of typecode code) each, as one integer: one pass of array
    and int.from_bytes per row."""
    order = sys.byteorder
    return lambda amp: int.from_bytes(array(code, map(amp.__getitem__, positions)).tobytes(),
                                      order)


def _sorted_diffs(m: int):
    """(key, n) -> the exponent differences held in the n-byte key (see
    _group_pair_failures), reduced mod m and sorted, with C builtins doing
    the per-field work.  For 8-bit fields that is bytes(sorted(...)) of the
    key's bytes translated through a 256-byte table v -> v % m; 16-bit
    fields are read back as an array and give a tuple."""
    order = sys.byteorder
    code = _field_code(m)
    if code == "B":
        mod_m = bytes(v % m for v in range(256))
        return lambda key, n: bytes(sorted(key.to_bytes(n, order).translate(mod_m)))
    return lambda key, n: tuple(sorted(map(m.__rmod__, array(code, key.to_bytes(n, order)))))


def _memo_test(memo: dict, tag, diffs, test) -> bool:
    """test(tag, diffs) for the sorted exponent differences diffs of a pair
    (see _sorted_diffs), remembered for the rest of one verify_mubs call
    under (tag, diffs); tag tells the tests apart.

    The sorted differences alone decide S, so a remembered verdict is
    exact, and pairs whose packed keys differ only in whole turns or in the
    order of the positions share it.  At most _MEMO_LIMIT entries are
    stored, which bounds memory on unstructured input.
    """
    hit = memo.get((tag, diffs))
    if hit is None:
        hit = test(tag, diffs)
        if len(memo) < _MEMO_LIMIT:
            memo[tag, diffs] = hit
    return hit


def _group_pair_failures(m: int, diffs_of, memo: dict, tag, test,
                         maps_u, us, maps_v, vs, common: int) -> tuple[tuple[int, int], ...]:
    """The local pairs (a, t) of the support groups us and vs, vector us[a]
    against vs[t], that fail _memo_test(memo, tag, diffs, test), decided on
    the positions of the bitmask common.

    Each group's rows are packed once (see _row_packer).  A pair's key is
    ru + (m*ONES - rv), ONES having a 1 in every field, so each field holds
    e_u - e_v + m, in 1..2m-1: the v side cannot borrow since every e_v < m,
    and the sum cannot carry, so one integer addition per pair gives a key
    that fixes the exponent differences, and hence S, exactly.

    A group paired with itself (vs is us) gives the pairs a < t only.  Their
    verdicts depend on the tuple of packed rows alone, wherever the support
    lies, so they are remembered in memo under (tag, field count, rows), at
    most _MEMO_LIMIT entries as in _memo_test.  That is the only block a
    valid construction repeats; no other group pair is remembered whole.
    """
    code = _field_code(m)
    positions = [p for p in maps_u[us[0]] if common >> p & 1]
    pack = _row_packer(code, positions)
    rows_u = tuple(pack(maps_u[i]) for i in us)
    same = vs is us
    if same:
        block = (tag, len(positions), rows_u)
        failures = memo.get(block)
        if failures is not None:
            return failures
    n = len(positions) * array(code).itemsize
    m_ones = pack(dict.fromkeys(positions, m))  # m*ONES
    rows_v = [m_ones - pack(maps_v[j]) for j in vs]
    failures = tuple((a, t) for a, ru in enumerate(rows_u)
                     for t in range(a + 1 if same else 0, len(rows_v))
                     if not _memo_test(memo, tag, diffs_of(ru + rows_v[t], n), test))
    if same and len(memo) < _MEMO_LIMIT:
        memo[block] = failures
    return failures


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, written as an integer when it is one."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _pair_violations_exact(x: MubSet, m: int, tables, memo: dict, diffs_of,
                           b: int, c: int) -> list[MubViolation]:
    """Violations between bases b and c, walked one pair of support groups
    at a time (see verify_mubs); memo and diffs_of (see _memo_test) are
    shared by all basis pairs of one call."""
    d = x.dim
    maps_b, groups_b = tables[b]
    maps_c, groups_c = tables[c]

    if b == c:
        out = _check_norms_exact(x, b)

        def vanishes(_, diffs) -> bool:
            return counts_to_cyclotomic(m, Counter(diffs)).is_zero()

        # holders[pos] has bit g set when group g holds pos; only the groups
        # sharing a position are visited, all others have disjoint supports
        # and S = 0 outright.
        holders: dict[int, int] = {}
        for g, (_, us) in enumerate(groups_b):
            for pos in maps_b[us[0]]:
                holders[pos] = holders.get(pos, 0) | 1 << g
        for g, ((mask_u, _), us) in enumerate(groups_b):
            near = functools.reduce(operator.or_, map(holders.__getitem__, maps_b[us[0]]), 0) >> g
            if len(us) == 1:
                near &= ~1  # one vector makes no pair with itself
            while near:
                low = near & -near
                near ^= low
                (mask_v, _), vs = groups_b[g + low.bit_length() - 1]
                out.extend(MubViolation("orthogonality", b, min(us[a], vs[t]), c,
                                        max(us[a], vs[t]), "S(u, v) != 0")
                           for a, t in _group_pair_failures(m, diffs_of, memo, None, vanishes,
                                                            maps_b, us, maps_b, vs,
                                                            mask_u & mask_v))
        return out

    # Unbiasedness asks |S|^2 = nu*nv/d, decided as d*S*conj(S) = nu*nv in
    # the ring, which needs no division.
    def unbiased(nunv, diffs) -> bool:
        s_val = counts_to_cyclotomic(m, Counter(diffs))
        return (s_val * s_val.conj() * d - Cyclotomic.from_int(nunv)).is_zero()

    out = []
    for (mask_u, nu), us in groups_b:
        for (mask_v, nv), vs in groups_c:
            common = mask_u & mask_v
            overlap = common.bit_count()
            if overlap == 1 and nu * nv == d:
                continue  # S is one root of unity, so d*S*conj(S) = d = nu*nv
            target = _ratio(nu * nv, d)
            if overlap == 0:
                out.extend(MubViolation("unbiasedness", b, i, c, j, f"|S|^2 = 0, want {target}")
                           for i in us for j in vs)
            elif overlap == 1:
                out.extend(MubViolation("unbiasedness", b, i, c, j, f"|S|^2 != {target}")
                           for i in us for j in vs)
            else:
                out.extend(MubViolation("unbiasedness", b, us[a], c, vs[t], f"|S|^2 != {target}")
                           for a, t in _group_pair_failures(m, diffs_of, memo, nu * nv,
                                                            unbiased, maps_b, us, maps_c, vs,
                                                            common))
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


def _pair_walker(x: MubSet, mode: str):
    """(b, c) -> violations between bases b and c, over tables (and, in
    exact mode, a memo) built here for one verify_mubs call."""
    if mode == "exact":
        m, tables = _exact_tables(x)
        memo: dict = {}
        diffs_of = _sorted_diffs(m)
        return lambda b, c: _pair_violations_exact(x, m, tables, memo, diffs_of, b, c)
    tables = _float_tables(x)
    return lambda b, c: _pair_violations_float(x, tables, b, c)


# The pool's per-process state: each worker builds its own walker once.
_WORKER_STATE: dict = {}


def _init_worker(x: MubSet, mode: str) -> None:
    _WORKER_STATE["walk"] = _pair_walker(x, mode)


def _run_pair(task: tuple[int, int]) -> list[MubViolation]:
    return _WORKER_STATE["walk"](*task)


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
    once per distinct block of rows, and only other overlaps are tested
    pair by pair, each distinct exponent-difference vector once.
    mode "float" computes every inner product numerically and compares it
    against tolerance 1e-9; a vector whose products with a whole basis all
    lie within half that tolerance passes at once.  jobs > 1 spreads basis
    pairs across up to that many processes, capped at the usable CPUs; the
    report is identical for any job count.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f'mode must be "exact" or "float", got {mode!r}')
    if mode == "exact" and not x.is_exact:
        raise ValueError("ExactUnavailable: set has float-only amplitudes")
    if mode == "exact" and x.root_order > MAX_ROOT_ORDER:
        raise ValueError(f"TooLarge: root order {x.root_order} exceeds the limit {MAX_ROOT_ORDER}")
    tasks = [(b, c) for b in range(x.k) for c in range(b, x.k)]
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers > 1:
        import multiprocessing  # only parallel runs pay for its import

        ctx = multiprocessing.get_context("fork" if os.name == "posix" else None)
        with ctx.Pool(workers, _init_worker, (x, mode)) as pool:
            chunks = pool.map(_run_pair, tasks)
    else:
        walk = _pair_walker(x, mode)
        chunks = [walk(b, c) for b, c in tasks]
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

def _vector_json(vec: MubVector, m: int) -> str:
    if vec.amps is None:
        return serial.encode({"norm_sq": vec.norm_sq, "amps_float": [
            [pos, a.real, a.imag] for pos, a in vec.amps_float]})
    amps = vec.amps
    if vec.root_order != m:
        f = m // vec.root_order
        amps = [(pos, e * f) for pos, e in amps]  # e < root_order, so e*f < m
    return '{"amps":[' + ",".join(map("[%d,%d]".__mod__, amps)) + '],"norm_sq":%d}' % vec.norm_sq


def mubs_to_json(x: MubSet) -> str:
    """The canonical document of x (sorted keys, no spaces, a final
    newline, as serial.dumps writes it), with every exact vector lifted to
    the set root order.  Exact vectors are written directly, float vectors
    through the JSON encoder."""
    m = x.root_order
    bases = ",".join("[" + ",".join(_vector_json(vec, m) for vec in basis.vectors) + "]"
                     for basis in x.bases)
    return '{"bases":[%s],"dim":%d,"root_order":%d}\n' % (bases, x.dim, m)


def mubs_from_dict(data: object) -> MubSet:
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
    for bi, basis in enumerate(raw):
        serial.expect(isinstance(basis, list), f"basis {bi} must be a list")
        vectors += len(basis)
        serial.expect(vectors <= MAX_VECTORS,
                      f"the document holds more than {MAX_VECTORS} vectors")
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
                    isinstance(obj["amps"], list) and all(
                        isinstance(t, list) and len(t) == 2
                        and serial.is_int(t[0]) and serial.is_int(t[1])
                        for t in obj["amps"]
                    ),
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


def verified_from_dict(data: object, jobs: int = 1) -> MubSet:
    """Parse and verify a mub document: exactly, or with the float oracle
    where it holds float-only amplitudes (x.is_exact tells which)."""
    x = mubs_from_dict(data)
    report = verify_mubs(x, mode="exact" if x.is_exact else "float", jobs=jobs)
    if not report.ok:
        raise VerificationFailedError(report)
    return x


def import_mubs(path, jobs: int = 1) -> MubSet:
    """Load and verify a mub file; raises VerificationFailedError on bad data."""
    return verified_from_dict(serial.read_json(path), jobs=jobs)


def export_mubs(x: MubSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mubs_to_json(x))
