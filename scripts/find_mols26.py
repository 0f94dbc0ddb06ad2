#!/usr/bin/env python3
"""Regenerate tests/data/mols26.json: four MOLS of order 26.

26 is not a prime power, so the Galois construction does not apply, and
MacNeish's product over 26 = 2 * 13 gives only one square.  Four squares
exist anyway, and this script builds them from scratch:

1. Search for a quasi-difference matrix over Z_21: a 6 x 31 array whose
   columns are one all-zero column plus 30 columns that each miss exactly
   one row, such that for every ordered pair of distinct rows the
   differences across columns (where both entries are present) cover each
   nonzero residue exactly once.  The search space is cut down by looking
   only for orbits under the map sigma(c)[i] = mu * c[i-1] (rotate one row,
   scale by a fixed unit mu): five base columns, each missing the last row,
   generate all 30 holed columns.  For each admissible mu, base columns are
   filtered to those whose three difference multisets are 4-element partial
   transversals, then a depth-first search over bitmasks picks five columns
   whose multisets tile Z_21 \\ {0}.

2. Develop the matrix over Z_21.  Each column and shift gives a block on
   the point set (row, value): 21 finite values per row plus, for each of
   the five orbits, one infinite point per row marking the orbit's hole.
   That yields 651 blocks covering every cross-row pair except those
   between infinite points.

3. Fill the 6 x 5 hole with a transversal design of order 5 (25 blocks from
   the four MOLS of order 5), for 676 = 26^2 blocks total.

4. Dualize: blocks become points of a (6,26)-net whose six net blocks are
   the rows, and mols_from_net reads four MOLS of order 26 back out.

Every step is checked: the net is verified exactly, and the MolsSet
constructor re-checks Latin-ness and pairwise orthogonality.  The result
is deterministic for a fixed seed.

Usage: python3 scripts/find_mols26.py [output.json]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from mubkit.latin import complete_mols_prime_power
from mubkit.net import IncidenceVector, Net, mols_from_net, verify_net
from mubkit.latin import export_mols

N = 21          # group order: d = s^2 points come from s = 26 = 21 + 5
HOLES = 5       # infinite points per row
ROWS = 6        # net blocks / design groups
FULL = (1 << N) - 2  # bitmask of Z_21 \ {0}


def base_column_candidates(mu: int):
    """All normalized base columns compatible with the orbit map for mu.

    A base column is (0, x1, x2, x3, x4, hole).  Its orbit under sigma
    contributes, for each row gap delta in {1, 2, 3}, a 4-element
    difference multiset; the column qualifies iff all three multisets
    avoid 0 and have no repeats.  Columns with identical multiset triples
    are interchangeable, so only one representative is kept.
    """
    mi = pow(mu, -1, N)
    p = [pow(mi, j, N) for j in range(6)]
    cols, m1s, m2s, m3s = [], [], [], []
    seen = set()
    for x1 in range(N):
        for x2 in range(N):
            for x3 in range(N):
                for x4 in range(N):
                    d1 = (x1, p[1] * (x2 - x1) % N, p[2] * (x3 - x2) % N,
                          p[3] * (x4 - x3) % N)
                    if 0 in d1 or len(set(d1)) < 4:
                        continue
                    d2 = (x2, p[1] * (x3 - x1) % N, p[2] * (x4 - x2) % N,
                          p[4] * (-x4) % N)
                    if 0 in d2 or len(set(d2)) < 4:
                        continue
                    d3 = (x3, p[1] * (x4 - x1) % N, p[3] * (-x3) % N,
                          p[4] * (x1 - x4) % N)
                    if 0 in d3 or len(set(d3)) < 4:
                        continue
                    m1 = m2 = m3 = 0
                    for v in d1:
                        m1 |= 1 << v
                    for v in d2:
                        m2 |= 1 << v
                    for v in d3:
                        m3 |= 1 << v
                    key = (m1, m2, m3)
                    if key in seen:
                        continue
                    seen.add(key)
                    cols.append((0, x1, x2, x3, x4))
                    m1s.append(m1)
                    m2s.append(m2)
                    m3s.append(m3)
    return (np.array(m1s, dtype=np.int64), np.array(m2s, dtype=np.int64),
            np.array(m3s, dtype=np.int64), cols)


def search_base_columns(mu: int, seed: int, budget: int = 200000):
    """Five columns whose difference multisets tile Z_21 \\ {0}, or None.

    Exact-cover search: always branch on the lowest value missing from the
    gap-1 mask, keeping the pool of still-compatible candidates as a numpy
    index array so each node filters in vectorized time.
    """
    m1, m2, m3, cols = base_column_candidates(mu)
    order = np.random.default_rng(seed).permutation(len(cols))
    m1, m2, m3 = m1[order], m2[order], m3[order]
    cols = [cols[i] for i in order]
    nodes = 0

    def dfs(pool, M1, M2, M3, chosen):
        nonlocal nodes
        if len(chosen) == 5:
            return list(chosen)
        if len(pool) == 0:
            return None
        nodes += 1
        if nodes > budget:
            return None
        miss = ~M1 & FULL
        v = miss & -miss
        for c in pool[(m1[pool] & v) != 0]:
            nM1 = M1 | int(m1[c])
            nM2 = M2 | int(m2[c])
            nM3 = M3 | int(m3[c])
            keep = ((m1[pool] & nM1) | (m2[pool] & nM2) | (m3[pool] & nM3)) == 0
            found = dfs(pool[keep], nM1, nM2, nM3, chosen + [c])
            if found is not None or nodes > budget:
                return found
        return None

    picked = dfs(np.arange(len(cols)), 0, 0, 0, [])
    if picked is None:
        return None
    return [cols[c] for c in picked]


def develop(mu: int, bases: list[tuple[int, ...]]) -> Net:
    """Expand base columns into the full design and dualize to a net."""
    # 31 columns: all-zero (no hole), then sigma-orbits of the bases.  A
    # holed column remembers its orbit, which names the infinite point it
    # will pick up in place of the missing row.
    columns: list[tuple[list[int | None], int | None]] = [([0] * ROWS, None)]
    for orbit, base in enumerate(bases):
        col: list[int | None] = list(base) + [None]
        for _ in range(ROWS):
            columns.append((col, orbit))
            col = [None if col[i - 1] is None else mu * col[i - 1] % N
                   for i in range(ROWS)]

    # Develop over Z_21: block id = column * 21 + shift.  Points are
    # (row, value) with values 0..20 finite and 21..25 the orbit holes.
    blocks: list[list[tuple[int, int]]] = []
    for col, orbit in columns:
        for g in range(N):
            blocks.append([(r, (col[r] + g) % N if col[r] is not None
                            else N + orbit) for r in range(ROWS)])

    # Fill the hole: 25 blocks of a transversal design on the infinite
    # points, read off the four MOLS of order 5.
    fill = complete_mols_prime_power(HOLES)
    for i in range(HOLES):
        for j in range(HOLES):
            block = [(0, N + i), (1, N + j)]
            block += [(r + 2, N + fill.squares[r].grid[i][j])
                      for r in range(ROWS - 2)]
            blocks.append(block)

    d = len(blocks)
    assert d == (N + HOLES) ** 2
    supports: list[list[list[int]]] = [[[] for _ in range(N + HOLES)]
                                       for _ in range(ROWS)]
    for b, block in enumerate(blocks):
        for r, v in block:
            supports[r][v].append(b)
    return Net(N + HOLES, tuple(
        tuple(IncidenceVector(d, sum(1 << b for b in sup)) for sup in row)
        for row in supports))


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "tests/data/mols26.json"
    t0 = time.time()
    # Units of Z_21 with mu^3 != -1; those with mu^3 = -1 force repeats in
    # the gap-3 multiset and can never qualify.
    for mu in (16, 2, 4, 8, 11, 13, 19, 10, 1):
        bases = search_base_columns(mu, seed=7)
        if bases is None:
            print(f"mu = {mu}: no tiling within budget")
            continue
        print(f"mu = {mu}: base columns {bases}")
        net = develop(mu, bases)
        report = verify_net(net)
        if not report.ok:
            print(f"mu = {mu}: development failed net verification")
            continue
        mols = mols_from_net(net)
        export_mols(mols, out)
        print(f"wrote {mols.width} MOLS of order {mols.order} to {out} "
              f"in {time.time() - t0:.1f}s")
        return 0
    print("search exhausted without a solution", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
