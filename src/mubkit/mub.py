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
exactly when nu*nv = d; disjoint supports give S = 0.  Every other
overlapping pair is decided on its own in the cyclotomic group ring, with
each distinct vector of exponent differences tested once per call.  The
float oracle (tolerance 1e-9) stays brute force, summing every inner
product numerically, so it cross-checks these shortcuts independently.

Amplitudes are stored either as integer exponents against a root order
(exact route) or as complex numbers (float-only route, e.g. imported data).
"""

from __future__ import annotations

import cmath
import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from . import serial
from .cyclotomic import TOL, Cyclotomic, counts_to_cyclotomic
from .hadamard import GenHadamard, verify_hadamard
from .net import IncidenceVector, Net, verify_net

# Cyclotomic elements are dense in the root order, so a loaded document may
# ask for at most this order (the scale of hadamard.MAX_TABLE_SIZE).
MAX_ROOT_ORDER = 1 << 12
# Keys the exact pass remembers per verify_mubs call.
_MEMO_LIMIT = 1 << 12


class VerificationFailedError(ValueError):
    """Raised when imported data fails verification; carries the report."""

    def __init__(self, report: "MubReport"):
        self.report = report
        super().__init__(
            f"verification failed in {report.mode} mode: {len(report.violations)} violations"
        )


@dataclass(frozen=True)
class MubVector:
    """Sparse vector: amplitudes on a support, scaled by 1/sqrt(norm_sq).

    Exactly one of amps (pairs (position, exponent) against root_order) and
    amps_float (pairs (position, complex amplitude)) is set.
    """

    dim: int
    root_order: int
    norm_sq: int
    amps: tuple[tuple[int, int], ...] | None = None
    amps_float: tuple[tuple[int, complex], ...] | None = None

    def __post_init__(self) -> None:
        if self.dim < 1 or self.root_order < 1 or self.norm_sq < 1:
            raise ValueError("dim, root_order and norm_sq must be positive")
        if (self.amps is None) == (self.amps_float is None):
            raise ValueError("exactly one of amps and amps_float must be given")
        entries = self.amps if self.amps is not None else self.amps_float
        last = -1
        for pos, value in entries:
            if not 0 <= pos < self.dim:
                raise ValueError(f"position {pos} out of range for dim {self.dim}")
            if pos <= last:
                raise ValueError("positions must be strictly increasing")
            last = pos
            if self.amps is not None and not 0 <= value < self.root_order:
                raise ValueError(f"exponent {value} out of range for root order {self.root_order}")

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


@dataclass(frozen=True)
class MubBasis:
    vectors: tuple[MubVector, ...]


@dataclass(frozen=True)
class MubSet:
    dim: int
    bases: tuple[MubBasis, ...]
    provenance: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if len(self.bases) > self.dim + 1:
            raise ValueError(
                f"{len(self.bases)} bases in dimension {self.dim} exceeds the bound d + 1"
            )
        for b, basis in enumerate(self.bases):
            if len(basis.vectors) != self.dim:
                raise ValueError(f"basis {b} has {len(basis.vectors)} vectors, want {self.dim}")
            for vec in basis.vectors:
                if vec.dim != self.dim:
                    raise ValueError(f"basis {b} holds a vector of dim {vec.dim}, want {self.dim}")

    @property
    def k(self) -> int:
        return len(self.bases)

    @property
    def is_exact(self) -> bool:
        return all(v.is_exact for basis in self.bases for v in basis.vectors)

    @property
    def root_order(self) -> int:
        out = 1
        for basis in self.bases:
            for v in basis.vectors:
                if v.is_exact:
                    out = math.lcm(out, v.root_order)
        return out


def embed(row: Sequence[int], root_order: int, support_vec: IncidenceVector) -> MubVector:
    """Place the exponents of one Hadamard row on the support of a 0/1 vector.

    Entry l of the row lands at the l-th smallest support position.
    """
    w = support_vec.weight
    if len(row) != w:
        raise ValueError(f"WeightMismatch: row length {len(row)} vs support weight {w}")
    amps = tuple((pos, row[l] % root_order) for l, pos in enumerate(support_vec.support))
    return MubVector(dim=support_vec.length, root_order=root_order, norm_sq=w, amps=amps)


def build_mubs(net: Net, had: GenHadamard) -> MubSet:
    """k mutually unbiased bases of C^(s^2) from a (k,s)-net and an s x s
    generalized Hadamard matrix.

    Both inputs are verified first.  Basis b holds, for incidence vector i
    of block b and Hadamard row l, the embedding of row l on vector i
    (i outer, l inner), scaled by 1/sqrt(s).
    """
    if had.size != net.s:
        raise ValueError(f"SizeMismatch: hadamard size {had.size} vs net order {net.s}")
    if not verify_net(net).ok:
        raise ValueError("UnverifiedInput: net fails verification")
    if not verify_hadamard(had).ok:
        raise ValueError("UnverifiedInput: hadamard matrix fails verification")
    s = net.s
    bases = tuple(
        MubBasis(tuple(
            embed(had.exponents[l], had.root_order, block[i])
            for i in range(s)
            for l in range(s)
        ))
        for block in net.blocks
    )
    return MubSet(dim=s * s, bases=bases, provenance="net+hadamard")


def standard_basis(d: int) -> MubSet:
    """The single computational basis of C^d."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    vecs = tuple(MubVector(dim=d, root_order=1, norm_sq=1, amps=((p, 0),)) for p in range(d))
    return MubSet(dim=d, bases=(MubBasis(vecs),), provenance="trivial")


def inner_product(u: MubVector, v: MubVector) -> Cyclotomic:
    """Unscaled exact inner product S(u, v) = sum over common support of
    u_p * conj(v_p); the physical inner product is S / sqrt(nu * nv)."""
    if u.dim != v.dim:
        raise ValueError(f"DimMismatch: {u.dim} vs {v.dim}")
    if not (u.is_exact and v.is_exact):
        raise ValueError("ExactUnavailable: exact inner product needs exponent amplitudes")
    m = math.lcm(u.root_order, v.root_order)
    fu, fv = m // u.root_order, m // v.root_order
    vmap = u.amp_map() if u is v else v.amp_map()
    counts: Counter[int] = Counter()
    for pos, eu in u.amps:
        ev = vmap.get(pos)
        if ev is not None:
            counts[(eu * fu - ev * fv) % m] += 1
    return counts_to_cyclotomic(m, counts)


@dataclass(frozen=True)
class MubViolation:
    kind: str  # "norm" | "orthogonality" | "unbiasedness"
    basis: int
    index: int
    basis2: int
    index2: int
    detail: str = ""

    def pair(self) -> tuple[int, int, int, int]:
        return (self.basis, self.index, self.basis2, self.index2)

    def sort_key(self):
        return (self.basis, self.index, self.basis2, self.index2, self.kind)


@dataclass(frozen=True)
class MubReport:
    mode: str
    dim: int
    k: int
    violations: tuple[MubViolation, ...]

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
        groups: dict[tuple[int, int], list[int]] = {}
        for j, vec in enumerate(basis.vectors):
            f = m // vec.root_order
            maps.append({pos: e * f % m for pos, e in vec.amps})
            mask = sum(1 << pos for pos, _ in vec.amps)
            groups.setdefault((mask, vec.norm_sq), []).append(j)
        tables.append((maps, list(groups.items())))
    return m, tables


def _float_tables(x: MubSet):
    tables = []
    for basis in x.bases:
        maps = [vec.float_map() for vec in basis.vectors]
        inv: list[list[tuple[int, complex]]] = [[] for _ in range(x.dim)]
        for j, amp in enumerate(maps):
            for pos, a in amp.items():
                inv[pos].append((j, a))
        tables.append((maps, inv))
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


def _pack(fields: Iterable[int], w: int) -> int:
    """Non-negative fields below 2**w, one w-bit slot each, first lowest."""
    out = 0
    for k, f in enumerate(fields):
        out |= f << (w * k)
    return out


def _overlap_keys(m: int, w: int, maps_u, us, maps_v, vs, common: int):
    """(i, j, key) for every pair of the product us x vs, or for the pairs
    i < j when us is vs.  The key holds e_u - e_v + m, which lies in
    1..2m-1 < 2**w, in one w-bit field per common support position: adding
    the packed u and the packed m - v fields cannot carry, so one integer
    addition per pair gives a key that determines the exponent differences,
    and hence S(u, v), exactly."""
    positions = [p for p in maps_u[us[0]] if common >> p & 1]
    rows_u = [_pack((maps_u[i][p] for p in positions), w) for i in us]
    rows_v = [_pack((m - maps_v[j][p] for p in positions), w) for j in vs]
    same = us is vs
    for a, (i, ru) in enumerate(zip(us, rows_u)):
        partners = zip(vs[a + 1:], rows_v[a + 1:]) if same else zip(vs, rows_v)
        for j, rv in partners:
            yield i, j, ru + rv


def _memo_test(memo: dict, tag, key: int, m: int, w: int, test) -> bool:
    """test(tag, diffs) for the sorted exponent differences diffs packed in
    key (see _overlap_keys), remembered for the rest of one verify_mubs call
    under (tag, key) and (tag, diffs); tag tells the tests apart.

    The packed key costs one lookup per pair; the sorted differences, which
    alone decide S, also catch pairs whose packed keys differ only in whole
    turns or in the order of the positions.  A verdict depends on its key
    alone, so a remembered one is exact.  At most _MEMO_LIMIT keys are
    stored, which bounds memory on unstructured input.
    """
    hit = memo.get((tag, key))
    if hit is None:
        low, rest, fields = (1 << w) - 1, key, []
        while rest:  # every field is at least 1, so none is lost
            fields.append((rest & low) % m)
            rest >>= w
        diffs = tuple(sorted(fields))
        hit = memo.get((tag, diffs))
        if hit is None:
            hit = test(tag, diffs)
            if len(memo) < _MEMO_LIMIT:
                memo[tag, diffs] = hit
        if len(memo) < _MEMO_LIMIT:
            memo[tag, key] = hit
    return hit


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, written as an integer when it is one."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _pair_violations_exact(x: MubSet, m: int, tables, memo: dict,
                           b: int, c: int) -> list[MubViolation]:
    """Violations between bases b and c, walked one pair of support groups
    at a time (see verify_mubs); memo is shared by all basis pairs of one
    call."""
    d = x.dim
    w = (2 * m - 1).bit_length()
    maps_b, groups_b = tables[b]
    maps_c, groups_c = tables[c]

    if b == c:
        out = _check_norms_exact(x, b)

        def vanishes(_, diffs) -> bool:
            return counts_to_cyclotomic(m, Counter(diffs)).is_zero()

        for g, ((mask_u, _), us) in enumerate(groups_b):
            for (mask_v, _), vs in groups_b[g:]:
                common = mask_u & mask_v
                if not common:
                    continue  # disjoint supports: S = 0 outright
                for i, j, key in _overlap_keys(m, w, maps_b, us, maps_b, vs, common):
                    if not _memo_test(memo, None, key, m, w, vanishes):
                        out.append(MubViolation("orthogonality", b, min(i, j), c, max(i, j),
                                                "S(u, v) != 0"))
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
                for i, j, key in _overlap_keys(m, w, maps_b, us, maps_c, vs, common):
                    if not _memo_test(memo, nu * nv, key, m, w, unbiased):
                        out.append(MubViolation("unbiasedness", b, i, c, j,
                                                f"|S|^2 != {target}"))
    return out


def _pair_violations_float(x: MubSet, tables, b: int, c: int) -> list[MubViolation]:
    out = []
    d = x.dim
    maps_b, _ = tables[b]
    maps_c, inv_c = tables[c]
    vecs_b = x.bases[b].vectors
    vecs_c = x.bases[c].vectors
    if b == c:
        out.extend(_check_norms_float(x, b, maps_b))
        for i, amp_u in enumerate(maps_b):
            nu = vecs_b[i].norm_sq
            partners: dict[int, complex] = {}
            for pos, au in amp_u.items():
                for j, av in inv_c[pos]:
                    if j > i:
                        partners[j] = partners.get(j, 0j) + au * av.conjugate()
            for j in sorted(partners):
                dev = abs(partners[j]) ** 2 / (nu * vecs_c[j].norm_sq)
                if dev >= TOL:
                    out.append(MubViolation("orthogonality", b, i, c, j,
                                            f"|<u,v>|^2 = {dev:.3e}"))
        return out
    for i, amp_u in enumerate(maps_b):
        nu = vecs_b[i].norm_sq
        partners = {}
        for pos, au in amp_u.items():
            for j, av in inv_c[pos]:
                partners[j] = partners.get(j, 0j) + au * av.conjugate()
        for j in range(d):
            nv = vecs_c[j].norm_sq
            s_val = partners.get(j, 0j)
            dev = abs(abs(s_val) ** 2 / (nu * nv) - 1.0 / d)
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
        return lambda b, c: _pair_violations_exact(x, m, tables, memo, b, c)
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

    mode "exact" needs exponent amplitudes everywhere and decides each
    condition in the cyclotomic group ring: orthogonality as S = 0 and
    unbiasedness as d*S*conj(S) = nu*nv, which needs no division.  It walks
    pairs of support groups, not pairs of vectors: a cross-basis pair of
    supports meeting in one point is settled for all its vector pairs by
    S*conj(S) = 1, disjoint supports by S = 0, and only other overlaps are
    tested pair by pair, each distinct exponent-difference vector once.
    mode "float" computes every inner product numerically and compares it
    against tolerance 1e-9.  jobs > 1 spreads basis pairs across up to that
    many processes, capped at the usable CPUs; the report is identical for
    any job count.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f'mode must be "exact" or "float", got {mode!r}')
    if mode == "exact" and not x.is_exact:
        raise ValueError("ExactUnavailable: set has float-only amplitudes")
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
    """Combine sets for dimensions dA and dB into min(kA, kB) bases of
    C^(dA*dB): vector (u, v) has amplitude u_p * v_q at position p*dB + q.

    Both inputs are expected to be verified.  A factor of dimension 1 acts
    as the identity: the other set comes back unchanged.  An exact product
    whose root order (the lcm of the two) exceeds MAX_ROOT_ORDER is refused.
    """
    if not a.bases or not b.bases:
        raise ValueError("EmptyInput: both sets need at least one basis")
    if a.dim == 1:
        return replace(b, provenance="tensor")
    if b.dim == 1:
        return replace(a, provenance="tensor")
    k = min(a.k, b.k)
    d = a.dim * b.dim
    exact = a.is_exact and b.is_exact
    m = math.lcm(a.root_order, b.root_order) if exact else 1
    if m > MAX_ROOT_ORDER:
        raise ValueError(
            f"TooLarge: root order {m} of the product exceeds the limit {MAX_ROOT_ORDER}")
    bases = []
    for t in range(k):
        vecs = []
        for u in a.bases[t].vectors:
            for v in b.bases[t].vectors:
                norm = u.norm_sq * v.norm_sq
                if exact:
                    fu, fv = m // u.root_order, m // v.root_order
                    amps = tuple(
                        (pu * b.dim + pv, (eu * fu + ev * fv) % m)
                        for pu, eu in u.amps
                        for pv, ev in v.amps
                    )
                    vecs.append(MubVector(dim=d, root_order=m, norm_sq=norm, amps=amps))
                else:
                    amps_f = tuple(
                        (pu * b.dim + pv, au * av)
                        for pu, au in sorted(u.float_map().items())
                        for pv, av in sorted(v.float_map().items())
                    )
                    vecs.append(MubVector(dim=d, root_order=1, norm_sq=norm, amps_float=amps_f))
        bases.append(MubBasis(tuple(vecs)))
    return MubSet(dim=d, bases=tuple(bases), provenance="tensor")


# -- serialization -----------------------------------------------------------
#
# {"dim": d, "root_order": m, "bases": [[vector, ...], ...]} where vector is
# {"norm_sq": n, "amps": [[pos, exp], ...]} for exact amplitudes or
# {"norm_sq": n, "amps_float": [[pos, re, im], ...]} otherwise.

def mubs_to_dict(x: MubSet) -> dict:
    m = x.root_order
    bases = []
    for basis in x.bases:
        out_vecs = []
        for vec in basis.vectors:
            if vec.is_exact:
                f = m // vec.root_order
                out_vecs.append({
                    "norm_sq": vec.norm_sq,
                    "amps": [[pos, e * f % m] for pos, e in vec.amps],
                })
            else:
                out_vecs.append({
                    "norm_sq": vec.norm_sq,
                    "amps_float": [[pos, a.real, a.imag] for pos, a in vec.amps_float],
                })
        bases.append(out_vecs)
    return {"dim": x.dim, "root_order": m, "bases": bases}


def mubs_from_dict(data: object, provenance: str = "imported") -> MubSet:
    serial.expect(isinstance(data, dict), "mub document must be a JSON object")
    serial.expect(set(data) == {"dim", "root_order", "bases"},
                  'mub document needs exactly the keys "dim", "root_order" and "bases"')
    d, m, raw = data["dim"], data["root_order"], data["bases"]
    serial.expect(serial.is_int(d) and d >= 1, '"dim" must be a positive integer')
    serial.expect(serial.is_int(m) and m >= 1, '"root_order" must be a positive integer')
    serial.expect(m <= MAX_ROOT_ORDER, f'"root_order" {m} exceeds the limit {MAX_ROOT_ORDER}')
    serial.expect(isinstance(raw, list), '"bases" must be a list')
    bases = []
    for bi, basis in enumerate(raw):
        serial.expect(isinstance(basis, list), f"basis {bi} must be a list")
        vecs = []
        for vi, obj in enumerate(basis):
            where = f"basis {bi} vector {vi}"
            serial.expect(isinstance(obj, dict), f"{where} must be an object")
            serial.expect(
                set(obj) in ({"norm_sq", "amps"}, {"norm_sq", "amps_float"}),
                f'{where} needs "norm_sq" and exactly one of "amps", "amps_float"',
            )
            n = obj["norm_sq"]
            serial.expect(serial.is_int(n) and n >= 1, f'{where}: "norm_sq" must be a positive integer')
            try:
                if "amps" in obj:
                    serial.expect(
                        isinstance(obj["amps"], list) and all(
                            isinstance(t, list) and len(t) == 2
                            and serial.is_int(t[0]) and serial.is_int(t[1])
                            for t in obj["amps"]
                        ),
                        f'{where}: "amps" must be a list of [position, exponent] pairs',
                    )
                    vec = MubVector(dim=d, root_order=m, norm_sq=n,
                                    amps=tuple((p, e) for p, e in obj["amps"]))
                else:
                    serial.expect(
                        isinstance(obj["amps_float"], list) and all(
                            isinstance(t, list) and len(t) == 3
                            and serial.is_int(t[0])
                            and all(isinstance(z, (int, float)) and not isinstance(z, bool)
                                    for z in t[1:])
                            for t in obj["amps_float"]
                        ),
                        f'{where}: "amps_float" must be a list of [position, re, im] triples',
                    )
                    vec = MubVector(dim=d, root_order=1, norm_sq=n,
                                    amps_float=tuple((p, complex(re, im))
                                                     for p, re, im in obj["amps_float"]))
            except ValueError as exc:
                raise serial.ParseError(f"{where}: {exc}") from None
            vecs.append(vec)
        bases.append(MubBasis(tuple(vecs)))
    try:
        return MubSet(dim=d, bases=tuple(bases), provenance=provenance)
    except ValueError as exc:
        raise serial.ParseError(str(exc)) from None


def verified_from_dict(data: object, jobs: int = 1) -> MubSet:
    """Parse and verify a mub document; float-only data gets the weaker
    provenance tag since no exact check is possible for it."""
    x = mubs_from_dict(data)
    if x.is_exact:
        report = verify_mubs(x, mode="exact", jobs=jobs)
    else:
        report = verify_mubs(x, mode="float", jobs=jobs)
        x = replace(x, provenance="float-verified only")
    if not report.ok:
        raise VerificationFailedError(report)
    return x


def import_mubs(path, jobs: int = 1) -> MubSet:
    """Load and verify a mub file; raises VerificationFailedError on bad data."""
    return verified_from_dict(serial.read_json(path), jobs=jobs)


def export_mubs(x: MubSet, path) -> None:
    serial.write_json(path, mubs_to_dict(x))
