"""Count planning: how many mutually unbiased bases each route guarantees.

For a dimension d the planner compares, over the divisor tree of d:

  * prime power d = p^e: p^e + 1 bases (cited count, not built here);
  * square d = s^2: w + 2 bases from w MOLS of order s, where w comes from
    the best available lower bound (constructive, imported, or cited);
  * an imported, already verified set for d itself (constructible only
    when its amplitudes are exact);
  * the single standard basis (always available);
  * tensor splits d = a * b, keeping min of the factor counts.

Every node of the tree divides d, so d's divisors are listed once: a node
is a prime power when exactly one prime of d divides it, and its splits
are the divisors of d that divide it.

Two optima are tracked: best_count uses every bound including
cited-existence ones, best_constructible_count only routes this package
can actually build or has imported as explicit verified objects.  They
are two first-max searches over the same candidates and splits, each
tensor node built from the factors' trees of its own kind, and only when
it beats the optimum it would replace.  The baseline
prime_power_reduction_count is min(p_i^(e_i)) + 1 over the prime
factorization, the guarantee obtained by tensoring the prime-power parts.
"""

from __future__ import annotations

import functools
import math
import os
from collections import namedtuple

from .arith import constructive_mols_count, factorize

MAX_PLAN_DIM = 10 ** 9

# Wilson's bound: every order from WILSON_MIN_ORDER on admits at least
# WILSON_MOLS MOLS.
WILSON_MIN_ORDER = 76
WILSON_MOLS = 6


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
        out = self._asdict()
        children = out.pop("children")
        if children:
            out["children"] = [c.to_dict() for c in children]
        return out


class Plan(namedtuple("Plan", "d best_count best_constructible_count "
                      "prime_power_reduction_count best best_constructible")):
    __slots__ = ()

    def to_dict(self) -> dict:
        out = self._asdict()
        out["best"] = self.best.to_dict()
        out["best_constructible"] = self.best_constructible.to_dict()
        return out


class ImportsTable(namedtuple("ImportsTable", "mols mubs mols_cited exact_mubs")):
    """Externally supplied objects and bounds, keyed by order / dimension.

    mols maps s to a verified MOLS set of order s, mubs maps d to a verified
    set of bases of C^d, and mols_cited maps s to a cited lower bound on the
    number of MOLS of order s (existence only, nothing to construct from).
    exact_mubs maps d to a verified set with exact amplitudes, which may be
    narrower than a float-only mubs[d].  Each table left out starts as a
    fresh empty dict.
    """

    __slots__ = ()

    def __new__(cls, mols: dict[int, MolsSet] | None = None,
                mubs: dict[int, MubSet] | None = None,
                mols_cited: dict[int, int] | None = None,
                exact_mubs: dict[int, MubSet] | None = None) -> "ImportsTable":
        return tuple.__new__(cls, ({} if mols is None else mols, {} if mubs is None else mubs,
                                   {} if mols_cited is None else mols_cited,
                                   {} if exact_mubs is None else exact_mubs))

    @classmethod
    def from_dir(cls, path: str | os.PathLike) -> "ImportsTable":
        """Scan a directory of JSON files, dispatching on their keys:
        "squares" -> MOLS, "bases" -> bases, "mols_cited_bounds" -> bounds.
        Every object import is fully verified; a widest-set / largest-bound
        rule resolves duplicate orders, and the widest exact set of bases is
        kept beside the widest set overall.
        """
        from . import serial

        table = cls()
        try:
            names = sorted(n for n in os.listdir(path) if n.endswith(".json"))
        except OSError as exc:
            raise serial.ParseError(f"cannot read import directory {path}: {exc}") from None
        # each kind of file imports the module that reads it, so a
        # directory without bases files never loads the verifier
        for name in names:
            full = os.path.join(path, name)
            try:
                data = serial.read_json(full)
                if not isinstance(data, dict):
                    raise serial.ParseError("import file must hold a JSON object")
                if "squares" in data:
                    from .latin import mols_from_dict

                    m = mols_from_dict(data)
                    old = table.mols.get(m.order)
                    if old is None or m.width > old.width:
                        table.mols[m.order] = m
                elif "bases" in data:
                    from .mub import verified_from_dict

                    x = verified_from_dict(data)
                    old = table.mubs.get(x.dim)
                    if old is None or x.k > old.k:
                        table.mubs[x.dim] = x
                    old = table.exact_mubs.get(x.dim)
                    if x.is_exact and (old is None or x.k > old.k):
                        table.exact_mubs[x.dim] = x
                elif "mols_cited_bounds" in data:
                    bounds = data["mols_cited_bounds"]
                    serial.expect(
                        isinstance(bounds, dict) and all(
                            serial.is_int(v) and v >= 0 and k.isdigit()
                            for k, v in bounds.items()
                        ),
                        '"mols_cited_bounds" must map order strings to counts',
                    )
                    for key, value in bounds.items():
                        s = int(key)
                        table.mols_cited[s] = max(table.mols_cited.get(s, 0), value)
                else:
                    raise serial.ParseError(
                        "unrecognized import file (no squares/bases/mols_cited_bounds key)")
            except ValueError as exc:
                # every message names the file: read_json's carry its path
                text = str(exc)
                raise serial.ParseError(text if full in text else f"{name}: {text}") from None
        return table


def prime_power_reduction_count(d: int) -> int:
    """min(p^e) + 1 over the prime-power parts of d: the tensor guarantee
    from complete sets in each prime-power dimension."""
    return _reduction_count(factorize(d))


def _reduction_count(factors: list[tuple[int, int]]) -> int:
    return min(p ** e for p, e in factors) + 1


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
    divisors = _divisors_of(factors)[1:]

    @functools.cache
    def solve(n: int) -> tuple[PlanNode, PlanNode]:
        candidates: list[PlanNode] = [
            PlanNode(n, "trivial", 1, True, "standard basis")
        ]
        if sum(n % p == 0 for p in primes) == 1:
            candidates.append(PlanNode(n, "prime-power", n + 1, False, "cited-existence"))
        s = math.isqrt(n)
        if s * s == n and s >= 2:
            for width, constructive, provenance in _mols_candidates(s, imports):
                if width > 0:
                    candidates.append(PlanNode(n, "square", width + 2, constructive, provenance))
        # the widest exact import comes first, so it wins ties for best; a
        # wider float-only import may still raise best, never best_con
        for x in (imports.exact_mubs.get(n), imports.mubs.get(n)):
            if x is not None:
                candidates.append(PlanNode(n, "imported-mubs", x.k, x.is_exact, "imported"))
        best = best_con = candidates[0]
        for cand in candidates[1:]:
            if cand.count > best.count:
                best = cand
            if cand.constructible and cand.count > best_con.count:
                best_con = cand
        # Splits n = a * b with 2 <= a <= b: best takes the product of the
        # factors' best trees, best_con that of their constructible trees,
        # each node built only when it strictly beats the optimum it would
        # replace.
        for a in divisors:
            if a * a > n:
                break
            if n % a:
                continue
            left_best, left_con = solve(a)
            right_best, right_con = solve(n // a)
            count = min(left_best.count, right_best.count)
            if count > best.count:
                best = PlanNode(n, "tensor", count,
                                left_best.constructible and right_best.constructible,
                                "tensor", (left_best, right_best))
            count = min(left_con.count, right_con.count)
            if count > best_con.count:
                best_con = PlanNode(n, "tensor", count, True, "tensor", (left_con, right_con))
        return best, best_con

    best, best_con = solve(d)
    return Plan(d=d, best_count=best.count, best_constructible_count=best_con.count,
                prime_power_reduction_count=_reduction_count(factors),
                best=best, best_constructible=best_con)


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
