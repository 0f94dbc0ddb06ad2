"""Count planning: how many mutually unbiased bases each route guarantees.

For a dimension d the planner compares, over the divisor tree of d:

  * prime power d = p^e: p^e + 1 bases (cited count, not built here);
  * square d = s^2: w + 2 bases from w MOLS of order s, where w comes from
    the best available lower bound (constructive, imported, or cited);
  * an imported, already verified set for d itself (constructible only
    when its amplitudes are exact);
  * the single standard basis (always available);
  * tensor splits d = a * b, keeping min of the factor counts.

Every node of the tree divides d, so d is factored once; each node's
factorization, its prime-power test and its divisors come from d's primes,
and a tensor node is built only when its count beats the current best.

Two optima are tracked: best_count uses every bound including
cited-existence ones, best_constructible_count only routes this package
can actually build or has imported as explicit verified objects.  The
baseline prime_power_reduction_count is min(p_i^(e_i)) + 1 over the prime
factorization, the guarantee obtained by tensoring the prime-power parts.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple

from . import serial
from .latin import (
    MolsSet,
    WILSON_MIN_ORDER,
    WILSON_MOLS,
    constructive_mols_count,
    factorize,
    mols_from_dict,
)
from .mub import MubSet, verified_from_dict

MAX_PLAN_DIM = 10 ** 9


class PlanNode(namedtuple("PlanNode", "d kind count constructible provenance children",
                          defaults=((),))):
    # kind: "prime-power" | "square" | "imported-mubs" | "trivial" | "tensor"
    __slots__ = ()

    def describe(self) -> str:
        if self.kind == "tensor":
            inner = " x ".join(c.describe() for c in self.children)
            return f"({inner})"
        if self.kind == "prime-power":
            return f"{self.d}[prime power: {self.count}]"
        if self.kind == "square":
            s = math.isqrt(self.d)
            return f"{self.d}={s}^2[{self.provenance} MOLS w={self.count - 2}: {self.count}]"
        if self.kind == "imported-mubs":
            return f"{self.d}[imported: {self.count}]"
        return f"{self.d}[trivial: 1]"

    def to_dict(self) -> dict:
        out = {
            "d": self.d,
            "kind": self.kind,
            "count": self.count,
            "constructible": self.constructible,
            "provenance": self.provenance,
        }
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class Plan(namedtuple("Plan", "d best_count best_constructible_count "
                      "prime_power_reduction_count best best_constructible")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "best_count": self.best_count,
            "best_constructible_count": self.best_constructible_count,
            "prime_power_reduction_count": self.prime_power_reduction_count,
            "best": self.best.to_dict(),
            "best_constructible": self.best_constructible.to_dict(),
        }


class ImportsTable(namedtuple("ImportsTable", "mols mubs mols_cited")):
    """Externally supplied objects and bounds, keyed by order / dimension.

    mols maps s to a verified MOLS set of order s, mubs maps d to a verified
    set of bases of C^d, and mols_cited maps s to a cited lower bound on the
    number of MOLS of order s (existence only, nothing to construct from).
    Each table left out starts as a fresh empty dict.
    """

    __slots__ = ()

    def __new__(cls, mols: dict[int, MolsSet] | None = None,
                mubs: dict[int, MubSet] | None = None,
                mols_cited: dict[int, int] | None = None) -> "ImportsTable":
        return tuple.__new__(cls, ({} if mols is None else mols, {} if mubs is None else mubs,
                                   {} if mols_cited is None else mols_cited))

    @classmethod
    def from_dir(cls, path: str | os.PathLike) -> "ImportsTable":
        """Scan a directory of JSON files, dispatching on their keys:
        "squares" -> MOLS, "bases" -> bases, "mols_cited_bounds" -> bounds.
        Every object import is fully verified; a widest-set / largest-bound
        rule resolves duplicate orders.
        """
        table = cls()
        try:
            names = sorted(n for n in os.listdir(path) if n.endswith(".json"))
        except OSError as exc:
            raise serial.ParseError(f"cannot read import directory {path}: {exc}") from None
        for name in names:
            full = os.path.join(path, name)
            data = serial.read_json(full)
            if not isinstance(data, dict):
                raise serial.ParseError(f"{name}: import file must hold a JSON object")
            try:
                if "squares" in data:
                    m = mols_from_dict(data)
                    old = table.mols.get(m.order)
                    if old is None or m.width > old.width:
                        table.mols[m.order] = m
                elif "bases" in data:
                    x = verified_from_dict(data)
                    old = table.mubs.get(x.dim)
                    if old is None or x.k > old.k:
                        table.mubs[x.dim] = x
                elif "mols_cited_bounds" in data:
                    bounds = data["mols_cited_bounds"]
                    serial.expect(
                        isinstance(bounds, dict) and all(
                            serial.is_int(v) and v >= 0 and k.isdigit()
                            for k, v in bounds.items()
                        ),
                        f'{name}: "mols_cited_bounds" must map order strings to counts',
                    )
                    for key, value in bounds.items():
                        s = int(key)
                        table.mols_cited[s] = max(table.mols_cited.get(s, 0), value)
                else:
                    raise serial.ParseError(
                        f"{name}: unrecognized import file (no squares/bases/mols_cited_bounds key)"
                    )
            except ValueError as exc:
                if isinstance(exc, serial.ParseError):
                    raise
                raise serial.ParseError(f"{name}: {exc}") from None
        return table


def prime_power_reduction_count(d: int) -> int:
    """min(p^e) + 1 over the prime-power parts of d: the tensor guarantee
    from complete sets in each prime-power dimension."""
    return _reduction_count(factorize(d))


def _reduction_count(factors: list[tuple[int, int]]) -> int:
    return min(p ** e for p, e in factors) + 1


def _factors_over(n: int, primes: list[int]) -> list[tuple[int, int]]:
    """Factorization of n, given every prime that divides it."""
    out = []
    for p in primes:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    return out


def _divisors_of(factors: list[tuple[int, int]]) -> list[int]:
    """All divisors, ascending, of the number with this factorization."""
    divs = [1]
    for p, e in factors:
        divs = [x * p ** k for x in divs for k in range(e + 1)]
    divs.sort()
    return divs


def _wilson_width(s: int) -> int:
    """The width the order >= WILSON_MIN_ORDER bound cites for order s, else 0."""
    return WILSON_MOLS if s >= WILSON_MIN_ORDER else 0


def _mols_candidates(s: int, imports: ImportsTable) -> list[tuple[int, bool, str]]:
    """(width, constructive, provenance) options for MOLS of order s."""
    out = [(constructive_mols_count(s), True, "constructive")]
    if s in imports.mols:
        out.append((imports.mols[s].width, True, "imported"))
    cited = max(imports.mols_cited.get(s, 0), _wilson_width(s))
    if cited > 0:
        out.append((cited, False, "cited-existence"))
    return out


def plan(d: int, imports: ImportsTable | None = None) -> Plan:
    """Best achievable counts for dimension d, with explanation trees."""
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    if d > MAX_PLAN_DIM:
        raise ValueError(f"TooLarge: dimension {d} exceeds {MAX_PLAN_DIM}")
    imports = imports or ImportsTable()
    factors = factorize(d)
    primes = [p for p, _ in factors]
    memo: dict[int, tuple[PlanNode, PlanNode]] = {}

    def solve(n: int) -> tuple[PlanNode, PlanNode]:
        got = memo.get(n)
        if got is not None:
            return got
        fac = _factors_over(n, primes)
        candidates: list[PlanNode] = [
            PlanNode(n, "trivial", 1, True, "standard basis")
        ]
        if len(fac) == 1:
            candidates.append(PlanNode(n, "prime-power", n + 1, False, "cited-existence"))
        s = math.isqrt(n)
        if s * s == n and s >= 2:
            for width, constructive, provenance in _mols_candidates(s, imports):
                if width > 0:
                    candidates.append(PlanNode(n, "square", width + 2, constructive, provenance))
        if n in imports.mubs:
            x = imports.mubs[n]
            candidates.append(PlanNode(n, "imported-mubs", x.k, x.is_exact, "imported"))
        best = best_con = candidates[0]
        for cand in candidates[1:]:
            if cand.count > best.count:
                best = cand
            if cand.constructible and cand.count > best_con.count:
                best_con = cand
        # Splits n = a * b with 2 <= a <= b, each offering the product of the
        # factors' best trees, then of their constructible trees; a node is
        # built only when it strictly beats what it would replace.  The
        # second count is at most the first, so it can only beat best_con.
        for a in _divisors_of(fac)[1:]:
            if a * a > n:
                break
            left_best, left_con = solve(a)
            right_best, right_con = solve(n // a)
            count = min(left_best.count, right_best.count)
            con = left_best.constructible and right_best.constructible
            if count > best.count or (con and count > best_con.count):
                node = PlanNode(n, "tensor", count, con, "tensor", (left_best, right_best))
                if count > best.count:
                    best = node
                if con and count > best_con.count:
                    best_con = node
            count = min(left_con.count, right_con.count)
            if count > best_con.count:
                best_con = PlanNode(n, "tensor", count, True, "tensor", (left_con, right_con))
        memo[n] = (best, best_con)
        return memo[n]

    best, best_con = solve(d)
    # The defensive floor of 3 never binds: every n >= 2 has a prime-power
    # divisor, so tensor routes alone already guarantee at least 3.
    return Plan(
        d=d,
        best_count=max(best.count, 3),
        best_constructible_count=best_con.count,
        prime_power_reduction_count=_reduction_count(factors),
        best=best,
        best_constructible=best_con,
    )


def count_tag(node: PlanNode) -> str:
    """How a route's count is known, read from its bottleneck leaf: the
    child of fewest bases at each tensor node."""
    leaf = node
    while leaf.kind == "tensor":
        leaf = min(leaf.children, key=lambda c: c.count)
    if leaf.kind == "prime-power":
        return "cited"
    if leaf.kind == "square":
        if leaf.provenance != "cited-existence":
            return "constructible"
        # the cited width may come from an imported table instead
        if leaf.count - 2 == _wilson_width(math.isqrt(leaf.d)):
            return "cited-existence via Wilson"
        return "cited-existence"
    if leaf.kind == "imported-mubs":
        return "constructible" if leaf.constructible else "float-verified only"
    return "trivial"
