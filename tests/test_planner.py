"""The count planner: divisor-tree search over guaranteed MUB counts."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from mubkit.cyclotomic import divisors
from mubkit.galois import prime_power
from mubkit.latin import complete_mols_prime_power, mols_to_dict
from mubkit.mub import MubBasis, MubSet, MubVector, export_mubs, verify_mubs
from mubkit.planner import (
    MAX_PLAN_DIM,
    ImportsTable,
    PlanNode,
    _mols_candidates,
    count_tag,
    plan,
    prime_power_reduction_count,
)
from mubkit.serial import ParseError

from conftest import DATA_DIR, built_mubs


def qubit_triple() -> MubSet:
    """Three bases of C^2: computational, sign and circular."""
    def v(norm, *amps):
        return MubVector(dim=2, root_order=4, norm_sq=norm, amps=amps)

    x = MubSet(dim=2, bases=(
        MubBasis((v(1, (0, 0)), v(1, (1, 0)))),
        MubBasis((v(2, (0, 0), (1, 0)), v(2, (0, 0), (1, 2)))),
        MubBasis((v(2, (0, 0), (1, 1)), v(2, (0, 0), (1, 3)))),
    ))
    assert verify_mubs(x, mode="exact").ok
    return x


def all_tensor_nodes(node: PlanNode):
    if node.kind == "tensor":
        yield node
        for child in node.children:
            yield from all_tensor_nodes(child)


# -- pinned counts

def test_plan_4():
    p = plan(4)
    assert (p.best_count, p.best_constructible_count, p.prime_power_reduction_count) == (5, 3, 5)
    assert p.best.kind == "prime-power"
    assert p.best_constructible.kind == "square"
    assert p.best_constructible.provenance == "constructive"
    assert p.best_constructible.describe() == "4=2^2[constructive MOLS w=1: 3]"


def test_plan_small_dimensions():
    assert plan(2).best_count == 3
    assert plan(2).best_constructible_count == 1
    p6 = plan(6)
    assert (p6.best_count, p6.best_constructible_count, p6.prime_power_reduction_count) == (3, 1, 3)
    p9 = plan(9)
    assert (p9.best_count, p9.best_constructible_count) == (10, 4)
    p36 = plan(36)
    assert (p36.best_count, p36.best_constructible_count, p36.prime_power_reduction_count) == (5, 3, 5)


def test_plan_6084_uses_the_wilson_bound():
    # 6084 = 78^2 and 78 is large enough for the cited 6-MOLS floor,
    # beating the tensor reduction over {4, 9, 169}
    p = plan(6084)
    assert p.best_count == 8
    assert p.prime_power_reduction_count == 5
    assert p.best.kind == "square"
    assert p.best.provenance == "cited-existence"
    assert p.best.describe() == "6084=78^2[cited-existence MOLS w=6: 8]"
    assert p.best_constructible_count == 3


def test_the_wilson_width_starts_at_order_76():
    assert all(prov != "cited-existence" for _, _, prov in _mols_candidates(75, ImportsTable()))
    assert (6, False, "cited-existence") in _mols_candidates(76, ImportsTable())


def test_plan_4732_without_imports():
    p = plan(4732)
    assert p.best_count == 5
    assert p.prime_power_reduction_count == 5
    assert p.best_constructible_count == 1


def test_plan_4732_with_imported_mols_of_26(mols26_path):
    imports = ImportsTable.from_dir(DATA_DIR)
    assert imports.mols[26].width == 4
    p = plan(4732, imports)
    assert p.best_count == 6
    assert p.prime_power_reduction_count == 5
    # the winning route tensors the prime 7 with the imported 26^2 square
    assert p.best.kind == "tensor"
    kinds = {(c.kind, c.provenance) for c in p.best.children}
    assert ("square", "imported") in kinds


def test_prime_power_reduction_values():
    assert prime_power_reduction_count(4) == 5
    assert prime_power_reduction_count(6) == 3
    assert prime_power_reduction_count(36) == 5
    assert prime_power_reduction_count(4732) == 5   # min(4, 7, 169) + 1
    assert prime_power_reduction_count(6084) == 5   # min(4, 9, 169) + 1


def test_plan_validates_input():
    for bad in (1, 0, -5, 2.0, "4"):
        with pytest.raises(ValueError):
            plan(bad)
    with pytest.raises(ValueError, match="TooLarge"):
        plan(MAX_PLAN_DIM + 1)
    assert plan(MAX_PLAN_DIM).best_count >= 3  # 10^9 stays cheap


def test_plan_is_deterministic():
    assert plan(360) == plan(360)


# -- imports

def test_imports_change_constructible_counts(tmp_path):
    export_mubs(qubit_triple(), tmp_path / "qubit.json")
    imports = ImportsTable.from_dir(tmp_path)
    assert imports.mubs[2].k == 3

    # 8 = 2 * 4 has no square or prime-power construction here, so without
    # the imported qubit triple only the standard basis is constructible
    assert plan(8).best_constructible_count == 1
    p = plan(8, imports)
    assert p.best_constructible_count == 3
    assert p.best_count == 9  # the cited prime-power count still wins
    kinds = {c.kind for c in p.best_constructible.children}
    assert "imported-mubs" in kinds


def test_only_exact_imported_sets_are_tagged_constructible():
    # plan marks an imported set constructible exactly when it is exact
    leaf = PlanNode(2, "imported-mubs", 3, False, "imported")
    assert count_tag(leaf) == "float-verified only"
    assert count_tag(leaf._replace(constructible=True)) == "constructible"


def test_cited_bounds_feed_square_routes(tmp_path):
    (tmp_path / "bounds.json").write_text(json.dumps(
        {"mols_cited_bounds": {"10": 8}}))
    imports = ImportsTable.from_dir(tmp_path)
    assert imports.mols_cited[10] == 8
    base = plan(100)
    assert base.best_count == 5
    p = plan(100, imports)
    assert p.best_count == 10
    assert p.best.kind == "square" and p.best.provenance == "cited-existence"
    # existence-only knowledge never makes a route constructible
    assert p.best_constructible_count == base.best_constructible_count == 3


def test_from_dir_keeps_the_widest_duplicate(tmp_path):
    full = complete_mols_prime_power(4)
    (tmp_path / "a_narrow.json").write_text(json.dumps(
        {"order": 4, "squares": [list(map(list, full.squares[0].grid))]}))
    (tmp_path / "b_full.json").write_text(json.dumps(mols_to_dict(full)))
    table = ImportsTable.from_dir(tmp_path)
    assert table.mols[4].width == 3


def test_from_dir_rejects_broken_files(tmp_path):
    (tmp_path / "junk.json").write_text('{"what": 1}')
    with pytest.raises(ParseError, match="junk.json"):
        ImportsTable.from_dir(tmp_path)

    (tmp_path / "junk.json").unlink()
    grid = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    (tmp_path / "dup.json").write_text(json.dumps(
        {"order": 3, "squares": [grid, grid]}))
    with pytest.raises(ParseError, match="dup.json"):
        ImportsTable.from_dir(tmp_path)


def test_from_dir_requires_a_readable_directory(tmp_path):
    with pytest.raises(ParseError):
        ImportsTable.from_dir(tmp_path / "missing")


def test_from_dir_verifies_imported_bases(tmp_path):
    doc = {"dim": 2, "root_order": 2, "bases": [
        [{"norm_sq": 2, "amps": [[0, 0], [1, 0]]},
         {"norm_sq": 2, "amps": [[0, 0], [1, 0]]}],  # not orthogonal
    ]}
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="bad.json"):
        ImportsTable.from_dir(tmp_path)


def test_non_json_files_are_ignored(tmp_path):
    (tmp_path / "notes.txt").write_text("not an import")
    assert ImportsTable.from_dir(tmp_path) == ImportsTable()


# -- structural properties

dims = st.integers(2, 600)


@settings(max_examples=80, deadline=None)
@given(dims)
def test_counts_are_consistent(d):
    p = plan(d)
    assert p.best_count == p.best.count  # the floor of 3 never binds
    assert p.best_count >= 3
    assert p.best_count >= p.prime_power_reduction_count >= 3
    assert p.best_count >= p.best_constructible_count >= 1
    assert p.best_constructible.constructible


@settings(max_examples=40, deadline=None)
@given(dims)
def test_tensor_nodes_take_the_minimum_of_their_children(d):
    p = plan(d)
    for root in (p.best, p.best_constructible):
        for node in all_tensor_nodes(root):
            assert len(node.children) == 2
            a, b = node.children
            assert a.d * b.d == node.d
            assert node.count == min(a.count, b.count)


_mols26_table: list[ImportsTable] = []


@settings(max_examples=40, deadline=None)
@given(dims)
def test_imports_never_hurt(d):
    if not _mols26_table:
        _mols26_table.append(ImportsTable.from_dir(DATA_DIR))
    base = plan(d)
    extended = plan(d, _mols26_table[0])
    assert extended.best_count >= base.best_count
    assert extended.best_constructible_count >= base.best_constructible_count


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 40), st.integers(2, 40))
def test_plans_of_products_dominate_the_split(a, b):
    # the divisor search always sees the split (a, b), so a product's best
    # count is at least the min of the factor counts
    p = plan(a * b)
    assert p.best_count >= min(plan(a).best_count, plan(b).best_count)


# -- equivalence with the eager divisor search

def eager_plan(d: int, imports: ImportsTable) -> dict:
    """Reference planner: trial-division divisors and prime-power tests per
    node, and both tensor candidates of every split built as nodes."""
    memo: dict[int, tuple[PlanNode, PlanNode]] = {}

    def solve(n):
        if n in memo:
            return memo[n]
        candidates = [PlanNode(n, "trivial", 1, True, "standard basis")]
        if prime_power(n) is not None:
            candidates.append(PlanNode(n, "prime-power", n + 1, False, "cited-existence"))
        s = math.isqrt(n)
        if s * s == n and s >= 2:
            for width, constructive, provenance in _mols_candidates(s, imports):
                if width > 0:
                    candidates.append(PlanNode(n, "square", width + 2, constructive, provenance))
        if n in imports.mubs:
            x = imports.mubs[n]
            candidates.append(PlanNode(n, "imported-mubs", x.k, x.is_exact, "imported"))
        for a in divisors(n):
            b = n // a
            if a < 2 or a * a > n or b < 2 or b == n:
                continue
            lb, lc = solve(a)
            rb, rc = solve(b)
            candidates.append(PlanNode(n, "tensor", min(lb.count, rb.count),
                                       lb.constructible and rb.constructible,
                                       "tensor", (lb, rb)))
            candidates.append(PlanNode(n, "tensor", min(lc.count, rc.count), True,
                                       "tensor", (lc, rc)))
        best = best_con = candidates[0]
        for cand in candidates[1:]:
            if cand.count > best.count:
                best = cand
            if cand.constructible and cand.count > best_con.count:
                best_con = cand
        memo[n] = (best, best_con)
        return memo[n]

    best, best_con = solve(d)
    return {
        "d": d,
        "best_count": max(best.count, 3),
        "best_constructible_count": best_con.count,
        "prime_power_reduction_count": prime_power_reduction_count(d),
        "best": best.to_dict(),
        "best_constructible": best_con.to_dict(),
    }


def test_plans_match_the_eager_search():
    tables = [ImportsTable(), ImportsTable.from_dir(DATA_DIR)]
    rng = random.Random(2004)
    dims = list(range(2, 2001)) + [rng.randrange(2, 10 ** 8) for _ in range(200)]
    for d in dims:
        for table in tables:
            assert plan(d, table).to_dict() == eager_plan(d, table), d
