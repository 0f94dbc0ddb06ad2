"""Plain reference implementations the tests check the library against:
the complete MOLS set computed cell by cell, factorization by trial
division by every integer, the net of a MOLS set scanned once per
symbol, the exact inner product of
two vectors with the failing pairs it gives, the float deviation of a
Hadamard matrix, and the float oracle written as one loop per pair.
Beside them sit small tools the tests use to read library objects: the
complex value of a cyclotomic element, one entry of a Hadamard matrix,
and a MUB set as the dict its canonical JSON parses to."""

from __future__ import annotations

import cmath
import math
from collections import Counter

from mubkit import serial
from mubkit.cyclotomic import TOL, Cyclotomic, counts_to_cyclotomic
from mubkit.galois import GField, prime_power
from mubkit.hadamard import GenHadamard
from mubkit.latin import LatinSquare, MolsSet
from mubkit.mub import MubReport, MubSet, MubVector, MubViolation, mubs_to_json
from mubkit.net import IncidenceVector, Net


def approx(x: Cyclotomic) -> complex:
    """The complex number x stands for, summed term by term."""
    return sum((c * cmath.exp(2j * cmath.pi * e / x.order)
                for e, c in enumerate(x.coeffs) if c), 0j)


def entry(h: GenHadamard, r: int, c: int) -> complex:
    """Entry (r, c) of h as a complex number."""
    return cmath.exp(2j * cmath.pi * h.exponents[r][c] / h.root_order)


def mubs_to_dict(x: MubSet) -> dict:
    """The parsed canonical document of x."""
    return serial.loads(mubs_to_json(x))


def float_document(doc: dict) -> dict:
    """A copy of a parsed exact MUB document with every vector's amplitudes
    written as [position, re, im] triples under "amps_float"."""
    m = doc["root_order"]
    out = []
    for basis in doc["bases"]:
        vecs = []
        for vec in basis:
            amps = [(p, cmath.exp(2j * cmath.pi * e / m)) for p, e in vec["amps"]]
            vecs.append({"norm_sq": vec["norm_sq"],
                         "amps_float": [[p, a.real, a.imag] for p, a in amps]})
        out.append(vecs)
    return {**doc, "bases": out}


def complete_mols_by_cells(q: int) -> MolsSet:
    """The q - 1 MOLS of prime-power order q, square a (a nonzero, in rank
    order) holding rank(a*x_i + x_j) in cell (i, j), each cell one product
    and one sum in GF(q)."""
    fld = GField(*prime_power(q))
    elems = [fld.index(i) for i in range(q)]
    return MolsSet(q, tuple(
        LatinSquare(tuple(tuple(fld.rank(fld.add(fld.mul(a, x), y)) for y in elems)
                          for x in elems))
        for a in elems[1:]))


def factorize_by_trial(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1, trying every divisor 2, 3, 4, ..."""
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def net_from_mols_by_scan(m: MolsSet) -> Net:
    """Rows, columns, then one block per square, each symbol's vector found
    by scanning the whole grid for that symbol."""
    s = m.order
    d = s * s
    blocks = [
        tuple(IncidenceVector.from_support(d, (i * s + j for j in range(s))) for i in range(s)),
        tuple(IncidenceVector.from_support(d, (i * s + j for i in range(s))) for j in range(s)),
    ]
    for sq in m.squares:
        blocks.append(tuple(
            IncidenceVector.from_support(
                d, (i * s + j for i in range(s) for j in range(s) if sq.grid[i][j] == v))
            for v in range(s)))
    return Net(s, tuple(blocks))


def inner_product(u: MubVector, v: MubVector) -> Cyclotomic:
    """Unscaled exact inner product S(u, v) = sum over common support of
    u_p * conj(v_p); the physical inner product is S / sqrt(nu * nv)."""
    if u.dim != v.dim:
        raise ValueError(f"DimMismatch: {u.dim} vs {v.dim}")
    if not (u.is_exact and v.is_exact):
        raise ValueError("ExactUnavailable: exact inner product needs exponent amplitudes")
    m = math.lcm(u.root_order, v.root_order)
    fu, fv = m // u.root_order, m // v.root_order
    vmap = v.amp_map()
    counts: Counter[int] = Counter()
    for pos, eu in u.amps:
        ev = vmap.get(pos)
        if ev is not None:
            counts[(eu * fu - ev * fv) % m] += 1
    return counts_to_cyclotomic(m, counts)


def exact_failing_pairs(x: MubSet) -> frozenset[tuple[int, int, int, int]]:
    """(b, i, c, j) for every vector pair of x, b < c or b = c and i <= j,
    whose exact inner product breaks the MUB conditions: S(u, u) = nu,
    S(u, v) = 0 within a basis, d*S*conj(S) = nu*nv across bases."""
    d = x.dim
    out = set()
    for b, basis_b in enumerate(x.bases):
        for c in range(b, x.k):
            for i, u in enumerate(basis_b.vectors):
                for j, v in enumerate(x.bases[c].vectors):
                    if b == c and j < i:
                        continue
                    s_val = inner_product(u, v)
                    if b == c and i == j:
                        bad = not (s_val - Cyclotomic.from_int(u.norm_sq)).is_zero()
                    elif b == c:
                        bad = not s_val.is_zero()
                    else:
                        want = Cyclotomic.from_int(u.norm_sq * v.norm_sq)
                        bad = not (s_val * s_val.conj() * d - want).is_zero()
                    if bad:
                        out.add((b, i, c, j))
    return frozenset(out)


def float_deviation(h: GenHadamard) -> float:
    """max |(H H* - s I)[r][r2]| over all entries, computed numerically."""
    s = h.size
    rows = [[entry(h, r, c) for c in range(s)] for r in range(s)]
    worst = 0.0
    for r in range(s):
        for r2 in range(s):
            g = sum(rows[r][c] * rows[r2][c].conjugate() for c in range(s))
            want = s if r == r2 else 0
            worst = max(worst, abs(g - want))
    return worst


def float_report(x: MubSet) -> MubReport:
    """verify_mubs(x, mode="float") as a loop over every pair of vectors:
    each inner product summed in the order of u's positions, then each
    pair compared with tolerance on its own, with the same detail strings."""
    d = x.dim
    maps = [[vec.float_map() for vec in basis.vectors] for basis in x.bases]
    inv = []
    for basis_maps in maps:
        holders: list[list[tuple[int, complex]]] = [[] for _ in range(d)]
        for j, amp in enumerate(basis_maps):
            for pos, a in amp.items():
                holders[pos].append((j, a))
        inv.append(holders)
    out = []
    for b in range(x.k):
        vecs_b = x.bases[b].vectors
        for i, amp in enumerate(maps[b]):
            off_unit = max((abs(abs(a) - 1.0) for a in amp.values()), default=0.0)
            norm = sum(abs(a) ** 2 for a in amp.values()) / vecs_b[i].norm_sq
            if off_unit >= TOL or abs(norm - 1.0) >= TOL:
                out.append(MubViolation("norm", b, i, b, i,
                                        f"|u|^2 = {norm:.12f}, max unit deviation {off_unit:.3e}"))
        for c in range(b, x.k):
            vecs_c = x.bases[c].vectors
            for i, amp_u in enumerate(maps[b]):
                nu = vecs_b[i].norm_sq
                partners: dict[int, complex] = {}
                for pos, au in amp_u.items():
                    for j, av in inv[c][pos]:
                        if b != c or j > i:
                            partners[j] = partners.get(j, 0j) + au * av.conjugate()
                if b == c:
                    for j in sorted(partners):
                        dev = abs(partners[j]) ** 2 / (nu * vecs_c[j].norm_sq)
                        if dev >= TOL:
                            out.append(MubViolation("orthogonality", b, i, c, j,
                                                    f"|<u,v>|^2 = {dev:.3e}"))
                    continue
                for j in range(d):
                    s_val = partners.get(j, 0j)
                    dev = abs(abs(s_val) ** 2 / (nu * vecs_c[j].norm_sq) - 1.0 / d)
                    if dev >= TOL:
                        out.append(MubViolation("unbiasedness", b, i, c, j,
                                                f"| |<u,v>|^2 - 1/d | = {dev:.3e}"))
    out.sort(key=MubViolation.sort_key)
    return MubReport(mode="float", dim=d, k=x.k, violations=tuple(out))
