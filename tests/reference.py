"""Plain reference implementations the tests check the library against:
the complete MOLS set computed cell by cell, the Latin and orthogonality
verdicts of grids walked one cell at a time, factorization by trial
division by every integer, the net of a MOLS set scanned once per
symbol, the violations of a net found by counting every pair's common
points one by one, the exponent differences of two vectors with the
failing pairs they give (one ring test per vector pair), the failing row
pairs of a Hadamard matrix tested one pair at a time, the float deviation
of a Hadamard matrix, the float oracle written as one loop per pair, and
the human listing of an exact set built one cell at a time.
The ring tests these exact references run are the library's two tests
done the long way: one integer remainder by long division modulo Phi_m,
the m-th cyclotomic polynomial, itself built by exact division of
x^m - 1 by Phi_d for each proper divisor d of m.  Beside them sit small
tools the tests use to read library objects: the complex sum of the
roots of unity a multiset of exponents names, one entry of a Hadamard
matrix, and a MUB set as the dict its canonical JSON parses to."""

from __future__ import annotations

import cmath
import functools
import json
import math
from collections import Counter

from mubkit.cyclotomic import TOL
from mubkit.galois import field_tables
from mubkit.hadamard import GenHadamard
from mubkit.latin import LatinSquare, MolsSet
from mubkit.mub import MubReport, MubSet, MubVector, MubViolation, mubs_to_json
from mubkit.net import IncidenceVector, Net, NetViolation


def approx(m: int, exponents) -> complex:
    """The sum of exp(2 pi i e / m) over exponents, term by term."""
    return sum((cmath.exp(2j * cmath.pi * e / m) for e in exponents), 0j)


def entry(h: GenHadamard, r: int, c: int) -> complex:
    """Entry (r, c) of h as a complex number."""
    return cmath.exp(2j * cmath.pi * h.exponents[r][c] / h.root_order)


def mubs_to_dict(x: MubSet) -> dict:
    """The parsed canonical document of x."""
    return json.loads(mubs_to_json(x))


def render_mubs(x: MubSet) -> str:
    """The human listing of the exact set x as mub build prints it: one
    token per cell, "0" off the support, every exponent lifted to the set
    root order, each token padded to the longest one in the whole set."""
    m = x.root_order

    def token(e):
        if e is None:
            return "0"
        return "1" if e == 0 else "-1" if 2 * e == m else "w" if e == 1 else f"w^{e}"

    rows = []
    for basis in x.bases:
        for vec in basis.vectors:
            amp = {p: e * (m // vec.root_order) for p, e in zip(vec.positions, vec.exponents)}
            rows.append([token(amp.get(p)) for p in range(x.dim)])
    width = max((len(t) for row in rows for t in row), default=1)
    head = f"d = {x.dim}, k = {x.k} bases, root order {m}"
    lines = [head + (f" (w = exp(2*pi*i/{m}))" if m > 2 else "")]
    cells = iter(rows)
    for b, basis in enumerate(x.bases, start=1):
        lines.append(f"basis {b}:")
        for vec in basis.vectors:
            scale = f"1/sqrt({vec.norm_sq}) * " if vec.norm_sq != 1 else ""
            lines.append(f"  {scale}[{' '.join(t.rjust(width) for t in next(cells))}]")
    return "\n".join(lines) + "\n"


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


def divisors(m: int) -> list[int]:
    """The divisors of m >= 1, ascending."""
    small, large = [], []
    i = 1
    while i * i <= m:
        if m % i == 0:
            small.append(i)
            if i != m // i:
                large.append(m // i)
        i += 1
    return small + large[::-1]


def poly_divmod(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Long division of integer coefficient lists (x^i at index i) by a
    monic den of no higher degree; exact over the integers.  The remainder
    keeps its zeros."""
    rem = list(num)
    k = len(den) - 1
    terms = [(j, b) for j, b in enumerate(den) if b]
    quot = [0] * (len(rem) - k)
    for i in range(len(rem) - k - 1, -1, -1):
        c = rem[i + k]
        if c:
            quot[i] = c
            for j, b in terms:
                rem[i + j] -= c * b
    return quot, rem[:k]


@functools.lru_cache(maxsize=None)
def phi(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, x^i at index i: x^m - 1 divided exactly by
    Phi_d for each proper divisor d of m."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m)[:-1]:
        num, rem = poly_divmod(num, phi(d))
        assert not any(rem), f"x^{m}-1 not divisible by Phi_{d}"
    return tuple(num)


def vanishes(m: int, exponents) -> bool:
    """Whether the sum of w_m^e over exponents is 0: its polynomial leaves
    no remainder modulo Phi_m."""
    coeffs = [0] * m
    for e in exponents:
        coeffs[e % m] += 1
    return not any(poly_divmod(coeffs, phi(m))[1])


def unbiased(m: int, exponents, d: int, n: int) -> bool:
    """Whether d*|S|^2 = n, S the sum of w_m^e over exponents: d times the
    polynomial of S*conj(S), minus n, leaves no remainder modulo Phi_m."""
    counts = Counter(e % m for e in exponents)
    coeffs = [0] * m
    for e, a in counts.items():
        for f, b in counts.items():
            coeffs[(e - f) % m] += d * a * b
    coeffs[0] -= n
    return not any(poly_divmod(coeffs, phi(m))[1])


def complete_mols_by_cells(q: int) -> MolsSet:
    """The q - 1 MOLS of prime-power order q, square a (a nonzero, in rank
    order) holding rank(a*x_i + x_j) in cell (i, j), each cell one product
    and one sum read from GF(q)'s tables."""
    add, mul = field_tables(q)
    return MolsSet(q, tuple(
        LatinSquare(tuple(tuple(add[mul[a][i]][j] for j in range(q)) for i in range(q)))
        for a in range(1, q)))


def latin_failure(grid) -> tuple[str, int | None, int | None] | None:
    """The cell walk: None when grid (of at most MAX_ORDER rows) is a Latin
    square, else (message, row, col) of the first failure NotLatinError
    names, checking each row's length and symbols, then each column's,
    one cell at a time."""
    s = len(grid)
    if s == 0:
        return "empty grid", None, None
    want = set(range(s))
    for r, row in enumerate(grid):
        if len(row) != s:
            return f"row {r} has length {len(row)}, want {s}", r, None
        if {row[c] for c in range(s)} != want:
            return f"row {r} is not a permutation of 0..{s - 1}", r, None
    for c in range(s):
        if {grid[r][c] for r in range(s)} != want:
            return f"column {c} is not a permutation of 0..{s - 1}", None, c
    return None


def first_repeated_pair(a, b) -> tuple | None:
    """None when the grids a and b of one order hold every ordered symbol
    pair once, else the first pair that repeats in row-major cell order."""
    seen = set()
    for i in range(len(a)):
        for j in range(len(a)):
            pair = (a[i][j], b[i][j])
            if pair in seen:
                return pair
            seen.add(pair)
    return None


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

    def vector(points) -> IncidenceVector:
        return IncidenceVector(d, sum(1 << p for p in points))

    blocks = [
        tuple(vector(i * s + j for j in range(s)) for i in range(s)),
        tuple(vector(i * s + j for i in range(s)) for j in range(s)),
    ]
    for sq in m.squares:
        blocks.append(tuple(
            vector(i * s + j for i in range(s) for j in range(s) if sq.grid[i][j] == v)
            for v in range(s)))
    return Net(s, tuple(blocks))


def net_violations(net: Net) -> tuple[NetViolation, ...]:
    """Every violation verify_net reports, in its order: each vector's
    weight, then each pair of vectors, the common points of two supports
    counted one point at a time."""
    d = net.d
    points = [[{p for p in range(d) if vec.bits >> p & 1} for vec in block]
              for block in net.blocks]
    out = []
    for b, block in enumerate(points):
        for i, u in enumerate(block):
            if len(u) != net.s:
                out.append(NetViolation("weight", b, i, detail=f"weight {len(u)}, want {net.s}"))
            for c in range(b, net.k):
                want = 0 if b == c else 1
                for j in range(i + 1 if b == c else 0, net.s):
                    got = sum(1 for p in u if p in points[c][j])
                    if got != want:
                        kind = "within-block" if b == c else "cross-block"
                        out.append(NetViolation(kind, b, i, c, j, f"dot {got}, want {want}"))
    return tuple(sorted(out, key=NetViolation.sort_key))


def inner_product(u: MubVector, v: MubVector) -> tuple[int, list[int]]:
    """(m, diffs) for the unscaled exact inner product S(u, v), the sum over
    the common support of u_p * conj(v_p): S is the sum of w_m^e over diffs,
    with m the lcm of the two root orders.  The physical inner product is
    S / sqrt(nu * nv)."""
    if u.dim != v.dim:
        raise ValueError(f"DimMismatch: {u.dim} vs {v.dim}")
    if not (u.is_exact and v.is_exact):
        raise ValueError("ExactUnavailable: exact inner product needs exponent amplitudes")
    m = math.lcm(u.root_order, v.root_order)
    fu, fv = m // u.root_order, m // v.root_order
    vmap = dict(zip(v.positions, v.exponents))
    return m, [(eu * fu - vmap[pos] * fv) % m for pos, eu in zip(u.positions, u.exponents)
               if pos in vmap]


def exact_failing_pairs(x: MubSet) -> frozenset[tuple[int, int, int, int]]:
    """(b, i, c, j) for every vector pair of x, b < c or b = c and i <= j,
    whose exact inner product breaks the MUB conditions: S(u, u) = nu,
    S(u, v) = 0 within a basis, d*S*conj(S) = nu*nv across bases.  S(u, u)
    is a count of equal exponents, so |S|^2 = nu^2 decides it."""
    d = x.dim
    out = set()
    for b, basis_b in enumerate(x.bases):
        for c in range(b, x.k):
            for i, u in enumerate(basis_b.vectors):
                for j, v in enumerate(x.bases[c].vectors):
                    if b == c and j < i:
                        continue
                    m, diffs = inner_product(u, v)
                    if b == c and i == j:
                        ok = unbiased(m, diffs, 1, u.norm_sq ** 2)
                    elif b == c:
                        ok = vanishes(m, diffs)
                    else:
                        ok = unbiased(m, diffs, d, u.norm_sq * v.norm_sq)
                    if not ok:
                        out.add((b, i, c, j))
    return frozenset(out)


def hadamard_failing_pairs(h: GenHadamard) -> tuple[tuple[int, int], ...]:
    """The row pairs r < r2 of h, in row-major order, whose exact inner
    product is not zero, each pair counted and tested on its own."""
    m, s = h.root_order, h.size
    out = []
    for r in range(s):
        for r2 in range(r + 1, s):
            if not vanishes(m, [h.exponents[r][c] - h.exponents[r2][c] for c in range(s)]):
                out.append((r, r2))
    return tuple(out)


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
