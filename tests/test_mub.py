"""Building, verifying, combining and serializing mutually unbiased bases."""

from __future__ import annotations

import cmath
import math
import multiprocessing
import os
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from mubkit import cyclotomic, mub, serial
from mubkit.cyclotomic import Cyclotomic, TOL
from mubkit.hadamard import GenHadamard, dft, verify_hadamard
from mubkit.latin import MolsSet, complete_mols_prime_power, cyclic_square, import_mols
from mubkit.mub import (
    MAX_MAGNITUDE,
    MAX_ROOT_ORDER,
    MubBasis,
    MubReport,
    MubSet,
    MubVector,
    VerificationFailedError,
    build_mubs,
    embed,
    export_mubs,
    import_mubs,
    mubs_from_dict,
    mubs_to_json,
    standard_basis,
    tensor_mubs,
    verified_from_dict,
    verify_mubs,
)
from mubkit.net import IncidenceVector, Net, net_from_mols
from mubkit.serial import ParseError

from conftest import built_mubs
from mutations import mutated_documents
from reference import approx, exact_failing_pairs, float_report, inner_product, mubs_to_dict


def tampered(x: MubSet, b: int, i: int, slot: int, delta: int = 1) -> MubSet:
    """Copy of x with one exponent shifted by delta."""
    vec = x.bases[b].vectors[i]
    amps = list(vec.amps)
    pos, e = amps[slot]
    amps[slot] = (pos, (e + delta) % vec.root_order)
    new_vec = vec._replace(amps=tuple(amps))
    vecs = list(x.bases[b].vectors)
    vecs[i] = new_vec
    bases = list(x.bases)
    bases[b] = MubBasis(tuple(vecs))
    return MubSet(dim=x.dim, bases=tuple(bases))


def non_integer_target_set() -> MubSet:
    """Two bases of C^2 whose cross-basis pairs all have nu*nv/d = 3/2."""
    v0 = MubVector(dim=2, root_order=1, norm_sq=1, amps=((0, 0),))
    v1 = MubVector(dim=2, root_order=1, norm_sq=1, amps=((1, 0),))
    w = MubVector(dim=2, root_order=1, norm_sq=3, amps=((0, 0), (1, 0)))
    return MubSet(dim=2, bases=(MubBasis((v0, v1)), MubBasis((w, w))))


def as_float_set(x: MubSet, turn: dict[tuple[int, int], float] | None = None) -> MubSet:
    """The same set with every amplitude converted to a complex literal;
    turn[b, i] = t multiplies the last amplitude of vector i of basis b by
    exp(i*t), which keeps its modulus."""
    bases = []
    for b, basis in enumerate(x.bases):
        vecs = []
        for i, v in enumerate(basis.vectors):
            amps_f = sorted(v.float_map().items())
            if turn and (b, i) in turn:
                pos, a = amps_f[-1]
                amps_f[-1] = (pos, a * cmath.exp(1j * turn[b, i]))
            vecs.append(MubVector(dim=v.dim, root_order=1, norm_sq=v.norm_sq,
                                  amps_float=tuple(amps_f)))
        bases.append(MubBasis(tuple(vecs)))
    return MubSet(dim=x.dim, bases=tuple(bases))


# -- vectors and embedding

def test_vector_requires_exactly_one_representation():
    with pytest.raises(ValueError):
        MubVector(dim=2, root_order=2, norm_sq=1)
    with pytest.raises(ValueError):
        MubVector(dim=2, root_order=2, norm_sq=1,
                  amps=((0, 0),), amps_float=((0, 1 + 0j),))


def test_vector_validates_positions_and_exponents():
    with pytest.raises(ValueError):
        MubVector(dim=2, root_order=2, norm_sq=1, amps=((2, 0),))
    with pytest.raises(ValueError):
        MubVector(dim=3, root_order=2, norm_sq=2, amps=((1, 0), (0, 0)))
    with pytest.raises(ValueError):
        MubVector(dim=2, root_order=2, norm_sq=1, amps=((0, 2),))


@pytest.mark.parametrize("dim, amps, message", [
    (3, ((-1, 0),), "position -1 out of range for dim 3"),
    (3, ((0, 0), (3, 1)), "position 3 out of range for dim 3"),
    (3, ((1, 0), (1, 1)), "positions must be strictly increasing"),
    (3, ((2, 0), (1, 1)), "positions must be strictly increasing"),
    (3, ((0, 0), (1, -1)), "exponent -1 out of range for root order 4"),
    (3, ((0, 4),), "exponent 4 out of range for root order 4"),
    # several bad entries: the first one in order is named
    (3, ((0, 9), (5, 0), (1, 0)), "exponent 9 out of range for root order 4"),
    (3, ((1, 0), (0, 9), (7, 0)), "positions must be strictly increasing"),
    (4, ((0, 0), (7, 1), (5, 9)), "position 7 out of range for dim 4"),
])
def test_vector_names_the_first_bad_entry(dim, amps, message):
    with pytest.raises(ValueError) as err:
        MubVector(dim=dim, root_order=4, norm_sq=1, amps=amps)
    assert str(err.value) == message
    floats = tuple((pos, 1j) for pos, _ in amps)
    if "exponent" not in message:  # float amplitudes carry no exponent
        with pytest.raises(ValueError) as err:
            MubVector(dim=dim, root_order=1, norm_sq=1, amps_float=floats)
        assert str(err.value) == message


def test_embed_places_row_entries_at_support_positions():
    # weight-3 mask over 9 points, row (1, w, w^2) against the cube root
    mask = IncidenceVector.from_support(9, [0, 2, 8])
    v = embed((0, 1, 2), 3, mask)
    assert v == MubVector(dim=9, root_order=3, norm_sq=3,
                          amps=((0, 0), (2, 1), (8, 2)))
    fm = v.float_map()
    assert abs(fm[0] - 1) < TOL
    assert abs(fm[2] - complex(-0.5, math.sqrt(3) / 2)) < TOL
    assert abs(fm[8] - complex(-0.5, -math.sqrt(3) / 2)) < TOL


def test_embed_rejects_weight_mismatch():
    mask = IncidenceVector.from_support(9, [0, 2, 8])
    with pytest.raises(ValueError, match="WeightMismatch"):
        embed((0, 1), 3, mask)


# -- construction

def test_build_square_2_reproduces_the_reference_bases():
    net = net_from_mols(MolsSet(2, (cyclic_square(2),)))
    got = build_mubs(net, dft(2))

    def v(*amps):
        return MubVector(dim=4, root_order=2, norm_sq=2, amps=amps)

    want = MubSet(dim=4, bases=(
        MubBasis((v((0, 0), (1, 0)), v((0, 0), (1, 1)),
                  v((2, 0), (3, 0)), v((2, 0), (3, 1)))),
        MubBasis((v((0, 0), (2, 0)), v((0, 0), (2, 1)),
                  v((1, 0), (3, 0)), v((1, 0), (3, 1)))),
        MubBasis((v((0, 0), (3, 0)), v((0, 0), (3, 1)),
                  v((1, 0), (2, 0)), v((1, 0), (2, 1)))),
    ))
    assert got == want
    assert got.k == 3 and got.dim == 4 and got.root_order == 2


def test_build_validates_inputs():
    net = net_from_mols(MolsSet(2, (cyclic_square(2),)))
    with pytest.raises(ValueError, match="SizeMismatch"):
        build_mubs(net, dft(3))
    bad_net = Net(2, (
        (IncidenceVector.from_bits01("1100"), IncidenceVector.from_bits01("0110")),
        (IncidenceVector.from_bits01("1010"), IncidenceVector.from_bits01("0101")),
    ))
    with pytest.raises(ValueError, match="UnverifiedInput: net"):
        build_mubs(bad_net, dft(2))
    with pytest.raises(ValueError, match="UnverifiedInput: hadamard"):
        build_mubs(net, GenHadamard(2, ((0, 0), (0, 0))))


def test_build_bounds_the_set_size(monkeypatch):
    # 3 bases of 4 vectors, each vector 2 amplitudes
    net = net_from_mols(MolsSet(2, (cyclic_square(2),)))
    monkeypatch.setattr(mub, "MAX_VECTORS", 12)
    monkeypatch.setattr(mub, "MAX_AMPLITUDES", 24)
    assert build_mubs(net, dft(2)).k == 3
    for name, noun in [("MAX_VECTORS", "vectors"), ("MAX_AMPLITUDES", "amplitudes")]:
        limit = getattr(mub, name)
        monkeypatch.setattr(mub, name, limit - 1)
        with pytest.raises(ValueError, match=f"TooLarge: {limit} {noun} exceed the limit"):
            build_mubs(net, dft(2))
        monkeypatch.setattr(mub, name, limit)


def test_standard_basis_is_exact_and_verified():
    x = standard_basis(5)
    assert x.k == 1 and x.dim == 5 and x.is_exact
    assert verify_mubs(x, mode="exact").ok
    assert verify_mubs(x, mode="float").ok


# -- inner products

def test_inner_product_of_a_vector_with_itself_is_its_norm():
    x = built_mubs(3)
    for basis in x.bases:
        for v in basis.vectors:
            assert inner_product(v, v) == Cyclotomic.from_int(v.norm_sq)


def test_cross_basis_products_have_unit_square_modulus():
    x = built_mubs(3)
    for u in x.bases[0].vectors:
        for v in x.bases[2].vectors:
            s = inner_product(u, v)
            assert s * s.conj() == Cyclotomic.from_int(1)


def test_inner_product_lifts_mixed_root_orders():
    std = standard_basis(4).bases[0].vectors
    built = built_mubs(2).bases[0].vectors
    s = inner_product(std[0], built[0])  # root orders 1 and 2
    assert s == Cyclotomic.from_int(1)


def test_float_inner_product_tracks_exact():
    x = built_mubs(3)
    vecs = [v for basis in x.bases for v in basis.vectors]
    for u in vecs[:6]:
        for v in vecs[:6]:
            fu, fv = u.float_map(), v.float_map()
            s = sum(fu[p] * fv[p].conjugate() for p in fu.keys() & fv.keys())
            assert abs(approx(inner_product(u, v)) - s) < 1e-7


def test_cross_basis_supports_meet_exactly_once():
    # the structural reason unbiasedness holds: a cross-basis product is a
    # single root of unity because exactly one position is shared
    for q in (2, 3, 4):
        x = built_mubs(q)
        for b in range(x.k):
            for c in range(b + 1, x.k):
                for u in x.bases[b].vectors:
                    for v in x.bases[c].vectors:
                        common = set(p for p, _ in u.amps) & set(p for p, _ in v.amps)
                        assert len(common) == 1


# -- verification

@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_built_sets_verify_in_both_modes(q):
    x = built_mubs(q)
    for mode in ("exact", "float"):
        report = verify_mubs(x, mode=mode)
        assert report.ok
        assert (report.mode, report.dim, report.k) == (mode, q * q, q + 1)


def test_parallel_verification_matches_serial():
    x = built_mubs(3)
    assert verify_mubs(x, jobs=2) == verify_mubs(x, jobs=1)
    bad = tampered(x, 1, 2, 0)
    assert verify_mubs(bad, jobs=2) == verify_mubs(bad, jobs=1)


def test_a_nested_call_leaves_the_outer_report_intact(monkeypatch):
    # each call keeps its own tables and memo, so a verify_mubs that starts
    # while another is walking its basis pairs cannot swap them
    bad = tampered(built_mubs(3), 1, 2, 0)
    alone = verify_mubs(bad)
    assert not alone.ok
    pair_violations = mub._pair_violations_exact
    nested = []

    def with_a_nested_call(*args):
        if not nested:
            nested.append(None)  # the nested call runs no nested call itself
            nested.append(verify_mubs(built_mubs(5)))
        return pair_violations(*args)

    monkeypatch.setattr(mub, "_pair_violations_exact", with_a_nested_call)
    assert verify_mubs(bad) == alone
    assert nested[1].ok


def test_jobs_are_capped_at_usable_cpus_and_basis_pairs(monkeypatch):
    started = []

    class FakePool:  # runs the tasks in this process
        def __init__(self, processes, initializer, initargs):
            started.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: FakeContext)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    x = built_mubs(3)  # 4 bases, 10 basis pairs
    assert verify_mubs(x, jobs=64) == verify_mubs(x)
    assert verify_mubs(x, jobs=2).ok
    two = MubSet(dim=9, bases=x.bases[:2])  # 3 basis pairs
    assert verify_mubs(two, jobs=64).ok
    assert started == [4, 2, 3]


@pytest.mark.parametrize("q", [4, 5, 7, 9])
def test_built_sets_settle_every_cross_pair_by_the_support_identity(q, monkeypatch):
    # every cross-basis pair of supports meets once with nu*nv = d, so no
    # product is formed; within a basis every overlapping pair is two rows
    # of the DFT on one support, so at most C(q, 2) zero tests are distinct
    x = built_mubs(q)
    calls = {"mul": 0, "zero": 0}
    mul, is_zero = Cyclotomic.__mul__, Cyclotomic.is_zero

    def counting_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counting_is_zero(self):
        calls["zero"] += 1
        return is_zero(self)

    monkeypatch.setattr(Cyclotomic, "__mul__", counting_mul)
    monkeypatch.setattr(Cyclotomic, "is_zero", counting_is_zero)
    assert verify_mubs(x, mode="exact").ok
    assert calls["mul"] == 0
    assert 0 < calls["zero"] <= q * (q - 1) // 2


@pytest.mark.parametrize("q", [4, 5, 7, 9])
def test_built_sets_decide_their_one_row_block_once(q, monkeypatch):
    # every support group of every basis holds the q rows of the DFT, so
    # the first group decides the C(q, 2) row pairs and all k*q groups
    # reuse the verdicts; cross-basis pairs need no test at all
    calls = []
    memo_test = mub._memo_test

    def counting(*args):
        calls.append(args)
        return memo_test(*args)

    monkeypatch.setattr(mub, "_memo_test", counting)
    assert verify_mubs(built_mubs(q), mode="exact").ok
    assert len(calls) == q * (q - 1) // 2


def swapped(x: MubSet, b: int, i: int, j: int) -> MubSet:
    """Copy of x with vectors i and j of basis b exchanged."""
    vecs = list(x.bases[b].vectors)
    vecs[i], vecs[j] = vecs[j], vecs[i]
    bases = list(x.bases)
    bases[b] = MubBasis(tuple(vecs))
    return MubSet(dim=x.dim, bases=tuple(bases))


def test_row_blocks_keep_each_groups_own_failing_pairs():
    # basis 1 of built_mubs(5) holds incidence vector 1 as vectors 5..9;
    # a flipped exponent makes a new block, and a swap inside the group a
    # new order of rows, and each must give its own pairs, not those of the
    # block every other group shares
    x = built_mubs(5)
    flipped = tampered(x, 1, 7, 2)
    for y in [flipped, swapped(x, 1, 5, 8), swapped(flipped, 1, 7, 9),
              swapped(flipped, 1, 5, 6)]:
        exact = verify_mubs(y, mode="exact").failing_pairs()
        assert exact == verify_mubs(y, mode="float").failing_pairs()
        assert exact == exact_failing_pairs(y)
    assert {(b, i, c, j) for b, i, c, j in verify_mubs(swapped(flipped, 1, 7, 9)).failing_pairs()
            if b == c} == {(1, i, 1, 9) for i in (5, 6, 7, 8)}


def test_row_blocks_of_different_widths_keep_their_own_verdicts():
    # rows (1), (0) on one point and (1, 0), (0, 0) on two pack to the same
    # integers; only the first pair fails: -1 is no zero, -1 + 1 is.  The
    # second order interleaves the two groups.
    vecs = [MubVector(dim=4, root_order=2, norm_sq=1, amps=((0, 1),)),
            MubVector(dim=4, root_order=2, norm_sq=1, amps=((0, 0),)),
            MubVector(dim=4, root_order=2, norm_sq=2, amps=((1, 1), (2, 0))),
            MubVector(dim=4, root_order=2, norm_sq=2, amps=((1, 0), (2, 0)))]
    for order in (vecs, [vecs[2], vecs[0], vecs[3], vecs[1]]):
        x = MubSet(dim=4, bases=(MubBasis(tuple(order)),))
        exact = verify_mubs(x, mode="exact").failing_pairs()
        assert len(exact) == 1
        assert exact == verify_mubs(x, mode="float").failing_pairs() == exact_failing_pairs(x)


def test_two_groups_on_one_support_keep_the_triangle_apart_from_the_rectangle():
    # rows (0, 0) and (0, 1) on points 0 and 1, once with norm 2 and once
    # with norm 3: the rows are orthogonal inside each group, but between
    # the two groups equal rows meet, so the verdicts of a group paired
    # with itself must not stand in for those of the pair of groups
    vecs = [MubVector(dim=4, root_order=2, norm_sq=norm, amps=((0, 0), (1, e)))
            for norm in (2, 3) for e in (0, 1)]
    for order in (vecs, vecs[::-1]):
        x = MubSet(dim=4, bases=(MubBasis(tuple(order)),))
        exact = verify_mubs(x, mode="exact").failing_pairs()
        assert exact == verify_mubs(x, mode="float").failing_pairs() == exact_failing_pairs(x)
    assert exact == {(0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 0, 2), (0, 1, 0, 3)}


@pytest.mark.parametrize("limit", [0, 2, mub._MEMO_LIMIT])
def test_overlapping_group_pairs_keep_exact_verdicts_once_the_memo_is_full(limit, monkeypatch):
    # basis 0 holds groups on {0, 1, 2} and {1, 2, 3}, basis 1 on
    # {0, 1, 4, 5} and {2, 3, 4, 5}: the groups of a basis meet in two
    # points, and each group meets one group of the other basis in two
    # points and the other in one; a memo that is full from the start or
    # after two entries must give the verdicts of one that is not
    monkeypatch.setattr(mub, "_MEMO_LIMIT", limit)
    rng = random.Random(3)

    def group(support):
        return [MubVector(dim=6, root_order=4, norm_sq=len(support),
                          amps=tuple((p, rng.randrange(4)) for p in support)) for _ in range(3)]

    x = MubSet(dim=6, bases=(MubBasis(tuple(group((0, 1, 2)) + group((1, 2, 3)))),
                             MubBasis(tuple(group((0, 1, 4, 5)) + group((2, 3, 4, 5))))))
    exact = verify_mubs(x, mode="exact").failing_pairs()
    assert exact == verify_mubs(x, mode="float").failing_pairs() == exact_failing_pairs(x)
    # both kinds of two-point overlap hold passing and failing pairs
    within = {(i, j) for b, i, c, j in exact if b == c == 0 and i < 3 <= j}
    across = {(i, j) for b, i, c, j in exact if b < c and (i < 3) == (j < 3)}
    assert 0 < len(within) < 9 and 0 < len(across) < 18


def test_exact_checks_refuse_a_root_order_over_the_limit():
    # root orders 4093 and 4091 lift to 16,744,463: without the bound the
    # first zero test builds Phi_m of that order, far beyond what a test
    # can wait for; the float oracle still answers
    assert mub.MAX_ROOT_ORDER == cyclotomic.MAX_ROOT_ORDER
    x = MubSet(dim=2, bases=(MubBasis(tuple(
        MubVector(dim=2, root_order=m, norm_sq=2, amps=((0, 0), (1, 1))) for m in (4093, 4091))),))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="TooLarge: root order 16744463"):
        verify_mubs(x, mode="exact")
    with pytest.raises(ValueError, match="TooLarge: root order 16744463"):
        verify_hadamard(GenHadamard(4093 * 4091, ((0, 0), (0, 1))))
    assert time.perf_counter() - start < 1
    assert verify_mubs(x, mode="float").failing_pairs() == {(0, 0, 0, 1)}


def test_more_row_blocks_than_the_memo_holds_keep_exact_verdicts():
    # one basis of groups of two vectors on two points, half of them
    # orthogonal; far more distinct blocks than _MEMO_LIMIT, some repeated
    # both before and after the memo is full
    rng = random.Random(7)
    m, groups = 32, mub._MEMO_LIMIT + 600
    blocks = []
    for g in range(groups):
        a, b, c = (rng.randrange(m) for _ in range(3))
        e = (b - a + c + m // 2) % m if g % 2 else rng.randrange(m)
        blocks.append(((a, b), (c, e)))
    blocks[-50:] = blocks[:25] + blocks[-100:-75]
    assert len(set(blocks)) > mub._MEMO_LIMIT
    d = 2 * groups
    vecs = tuple(MubVector(dim=d, root_order=m, norm_sq=2,
                           amps=((2 * g, row[0]), (2 * g + 1, row[1])))
                 for g, rows in enumerate(blocks) for row in rows)
    x = MubSet(dim=d, bases=(MubBasis(vecs),))
    exact = verify_mubs(x, mode="exact")
    assert not exact.ok
    assert exact.failing_pairs() == verify_mubs(x, mode="float").failing_pairs()


def test_verify_rejects_unknown_modes():
    with pytest.raises(ValueError, match="mode"):
        verify_mubs(built_mubs(2), mode="approximate")


def test_exact_mode_requires_exact_amplitudes():
    x = as_float_set(built_mubs(2))
    with pytest.raises(ValueError, match="ExactUnavailable"):
        verify_mubs(x, mode="exact")
    assert verify_mubs(x, mode="float").ok


def test_norm_violations_are_detected():
    x = built_mubs(2)
    vec = x.bases[0].vectors[0]
    vecs = list(x.bases[0].vectors)
    vecs[0] = vec._replace(norm_sq=3)  # support has 2 entries, not 3
    bases = (MubBasis(tuple(vecs)),)
    bad = MubSet(dim=4, bases=bases)
    report = verify_mubs(bad, mode="exact")
    assert any(v.kind == "norm" for v in report.violations)
    report_f = verify_mubs(bad, mode="float")
    assert any(v.kind == "norm" for v in report_f.violations)


def test_tampering_fails_both_oracles_identically():
    x = built_mubs(3)
    for (b, i, slot) in [(0, 0, 1), (1, 3, 2), (3, 8, 0)]:
        bad = tampered(x, b, i, slot)
        exact = verify_mubs(bad, mode="exact")
        approx = verify_mubs(bad, mode="float")
        assert not exact.ok and not approx.ok
        assert exact.failing_pairs() == approx.failing_pairs()
        # an exponent flip breaks orthogonality inside basis b only: every
        # cross product is a lone root of unity whatever the exponent is
        assert all(v.kind == "orthogonality" for v in exact.violations)
        assert all(v.basis == b and v.basis2 == b for v in exact.violations)


def test_missing_overlap_breaks_unbiasedness():
    # duplicating a basis leaves disjoint cross-supports: |S|^2 = 0, want 1
    b0 = built_mubs(2).bases[0]
    x = MubSet(dim=4, bases=(b0, b0))
    report = verify_mubs(x, mode="exact")
    assert not report.ok
    assert any(v.kind == "unbiasedness" and "|S|^2 = 0" in v.detail
               for v in report.violations)
    assert verify_mubs(x, mode="float").failing_pairs() == report.failing_pairs()


def test_non_integer_unbiasedness_target_fails_both_oracles_identically():
    # nu*nv/d = 3/2 is no integer; the exact oracle compares d*|S|^2 with
    # nu*nv and reports violations like the float oracle does
    x = non_integer_target_set()
    exact = verify_mubs(x, mode="exact")
    assert exact.failing_pairs()
    assert exact.failing_pairs() == verify_mubs(x, mode="float").failing_pairs()
    assert any(v.kind == "unbiasedness" and v.detail == "|S|^2 != 3/2"
               for v in exact.violations)


# -- the float oracle at its tolerance edges

# How far a constructed deviation sits from the edge it tests, relative to
# TOL; float rounding moves these deviations by about 1e-7 TOL.
EDGE = 1e-5


def qubit_mubs() -> MubSet:
    """The three mutually unbiased bases of C^2: the standard basis, then
    (1, 1), (1, -1) and (1, i), (1, -i), each of norm 2."""
    def vec(norm, *amps):
        return MubVector(dim=2, root_order=4, norm_sq=norm, amps=amps)

    return MubSet(dim=2, bases=(
        MubBasis((vec(1, (0, 0)), vec(1, (1, 0)))),
        MubBasis((vec(2, (0, 0), (1, 0)), vec(2, (0, 0), (1, 2)))),
        MubBasis((vec(2, (0, 0), (1, 1)), vec(2, (0, 0), (1, 3)))),
    ))


def scaled_overlap(x: MubSet, b: int, i: int, c: int, j: int) -> float:
    """|S|^2 / (nu * nv) for vector i of basis b and vector j of basis c."""
    u, v = x.bases[b].vectors[i], x.bases[c].vectors[j]
    fu, fv = u.float_map(), v.float_map()
    s = sum(fu[p] * fv[p].conjugate() for p in fu.keys() & fv.keys())
    return abs(s) ** 2 / (u.norm_sq * v.norm_sq)


@pytest.mark.parametrize("ratio", [0.25, 0.75, 1 - EDGE, 1 + EDGE])
def test_float_fast_accept_matches_the_per_pair_oracle_at_the_tolerance_edge(ratio):
    # turning (1, 1) into (1, e^it) moves |S|^2/(nu*nv) against (1, +-i)
    # to 1/2 -+ sin(t)/2: below TOL/2 from 1/d the whole list of products
    # passes at once, beyond it each pair is checked, and from TOL on the
    # two pairs are violations
    x = as_float_set(qubit_mubs(), {(1, 0): math.asin(2 * ratio * TOL)})
    for j in (0, 1):
        dev = abs(scaled_overlap(x, 1, 0, 2, j) - 1 / 2)
        assert dev == pytest.approx(ratio * TOL, rel=EDGE / 10)
    report = verify_mubs(x, mode="float")
    assert report == float_report(x)
    assert report.failing_pairs() == (
        set() if ratio < 1 else {(1, 0, 2, 0), (1, 0, 2, 1)})
    assert verify_mubs(x, mode="float", jobs=2) == report


def test_float_within_basis_pass_matches_the_per_pair_oracle_at_the_tolerance_edge():
    # two rows (1, 1) and (1, -1) of one support, the first turned to
    # (1, e^it), give |S|^2/(nu*nv) = sin(t/2)^2; the cross pairs meet in
    # one point, so the turns leave them unbiased
    under, over = (2 * math.asin(math.sqrt(r * TOL)) for r in (1 - EDGE, 1 + EDGE))
    x = as_float_set(built_mubs(2), {(0, 0): under, (0, 2): over})
    assert scaled_overlap(x, 0, 0, 0, 1) == pytest.approx((1 - EDGE) * TOL, rel=EDGE / 10)
    assert scaled_overlap(x, 0, 2, 0, 3) == pytest.approx((1 + EDGE) * TOL, rel=EDGE / 10)
    report = verify_mubs(x, mode="float")
    assert report == float_report(x)
    assert report.failing_pairs() == {(0, 2, 0, 3)}
    assert verify_mubs(x, mode="float", jobs=2) == report


def test_float_oracle_checks_each_pair_against_a_basis_of_mixed_norms():
    # basis 1 holds norms 1 and 2, so no list of products with it is
    # passed at once
    def vec(norm, *amps):
        return MubVector(dim=4, root_order=2, norm_sq=norm, amps=amps)

    mixed = MubBasis((vec(1, (0, 0)), vec(1, (1, 0)),
                      vec(2, (2, 0), (3, 0)), vec(2, (2, 0), (3, 1))))
    x = as_float_set(MubSet(dim=4, bases=(built_mubs(2).bases[1], mixed)))
    report = verify_mubs(x, mode="float")
    assert not report.ok
    assert report == float_report(x)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_sparse_sets_verify_without_a_quadratic_pass(mode):
    # 20000 vectors on one point each: visiting every pair of support
    # groups, or a list of length d per vector, takes 2*10^8 steps
    x = standard_basis(20000)
    start = time.perf_counter()
    assert verify_mubs(x, mode=mode).ok
    assert time.perf_counter() - start < 10


def test_set_shape_validation():
    v = MubVector(dim=2, root_order=1, norm_sq=1, amps=((0, 0),))
    with pytest.raises(ValueError, match="bound"):
        MubSet(dim=1, bases=tuple(
            MubBasis((MubVector(dim=1, root_order=1, norm_sq=1, amps=((0, 0),)),))
            for _ in range(3)))
    with pytest.raises(ValueError):
        MubSet(dim=2, bases=(MubBasis((v,)),))  # 1 vector, want 2


# -- tensor combination

def test_tensor_counts_dimensions_and_roots():
    t = tensor_mubs(built_mubs(2), built_mubs(3))
    assert t.dim == 36
    assert t.k == 3  # min(3, 4)
    assert t.root_order == 6


def test_tensor_positions_interleave():
    t = tensor_mubs(standard_basis(2), standard_basis(3))
    assert t.dim == 6 and t.k == 1
    supports = [v.amps[0][0] for v in t.bases[0].vectors]
    assert supports == [0, 1, 2, 3, 4, 5]  # p*3 + q in row-major order


def test_tensor_result_verifies_exactly():
    t = tensor_mubs(built_mubs(2), built_mubs(2))
    assert t.dim == 16 and t.k == 3
    assert verify_mubs(t, mode="exact").ok
    assert verify_mubs(t, mode="float").ok


def test_tensor_with_dimension_one_is_identity():
    x = built_mubs(2)
    t = tensor_mubs(standard_basis(1), x)
    assert t == x
    t2 = tensor_mubs(x, standard_basis(1))
    assert t2 == x


def test_tensor_refuses_float_only_factors():
    x, f = built_mubs(2), as_float_set(built_mubs(2))
    for a, b in [(f, x), (x, f), (f, f), (standard_basis(1), f)]:
        with pytest.raises(ValueError, match="ExactUnavailable"):
            tensor_mubs(a, b)


def test_tensor_bounds_the_product_size(monkeypatch):
    # 3 bases of 16 vectors, each vector 2 * 2 amplitudes
    x = built_mubs(2)
    assert tensor_mubs(x, x).k == 3
    monkeypatch.setattr(mub, "MAX_VECTORS", 48)
    monkeypatch.setattr(mub, "MAX_AMPLITUDES", 192)
    assert verify_mubs(tensor_mubs(x, x)).ok
    for name, noun in [("MAX_VECTORS", "vectors"), ("MAX_AMPLITUDES", "amplitudes")]:
        limit = getattr(mub, name)
        monkeypatch.setattr(mub, name, limit - 1)
        with pytest.raises(ValueError, match=f"TooLarge: {limit} {noun} exceed the limit"):
            tensor_mubs(x, x)
        monkeypatch.setattr(mub, name, limit)


def test_tensor_bounds_the_product_root_order():
    # both factors load within MAX_ROOT_ORDER, but the lcm 4094 * 4095 does not
    a = mubs_from_dict({"dim": 2, "root_order": 4094,
                        "bases": [[{"norm_sq": 1, "amps": [[x, 0]]} for x in range(2)]]})
    b = mubs_from_dict({"dim": 3, "root_order": 4095,
                        "bases": [[{"norm_sq": 1, "amps": [[x, 0]]} for x in range(3)]]})
    with pytest.raises(ValueError, match="TooLarge: root order 16764930"):
        tensor_mubs(a, b)
    assert tensor_mubs(a, a).root_order == 4094


def test_tensor_rejects_empty_sets():
    empty = MubSet(dim=4, bases=())
    with pytest.raises(ValueError, match="EmptyInput"):
        tensor_mubs(empty, built_mubs(2))


# -- serialization

def old_to_dict(x: MubSet) -> dict:
    """Reference encoding: the document as nested lists and dicts, every
    exact exponent lifted to the set root order."""
    m = x.root_order
    bases = []
    for basis in x.bases:
        out_vecs = []
        for vec in basis.vectors:
            if vec.is_exact:
                f = m // vec.root_order
                out_vecs.append({"norm_sq": vec.norm_sq,
                                 "amps": [[pos, e * f % m] for pos, e in vec.amps]})
            else:
                out_vecs.append({"norm_sq": vec.norm_sq,
                                 "amps_float": [[pos, a.real, a.imag] for pos, a in vec.amps_float]})
        bases.append(out_vecs)
    return {"dim": x.dim, "root_order": m, "bases": bases}


def mixed_root_orders() -> MubSet:
    """Root orders 1, 2 and 3 in one set of C^4, so export lifts to 6."""
    third = MubBasis(tuple(
        MubVector(dim=4, root_order=3, norm_sq=2, amps=((p, p % 3), (p ^ 1, 2)))
        if p % 2 == 0 else
        MubVector(dim=4, root_order=3, norm_sq=2, amps=((p ^ 1, 1), (p, 0)))
        for p in range(4)))
    return MubSet(dim=4, bases=(standard_basis(4).bases[0], built_mubs(2).bases[1], third))


def odd_floats() -> MubSet:
    """Float amplitudes whose encodings need repr, NaN and Infinity."""
    vecs = (MubVector(dim=2, root_order=1, norm_sq=1, amps_float=((0, complex(0.1, -1 / 3)),)),
            MubVector(dim=2, root_order=1, norm_sq=2,
                      amps_float=((0, complex(float("nan"), float("inf"))),
                                  (1, complex(-float("inf"), 1e300)))))
    return MubSet(dim=2, bases=(MubBasis(vecs),))


def test_json_writer_matches_the_reference_encoding(mols26_path, tmp_path):
    sets = [built_mubs(q) for q in (2, 3, 4, 9)]
    sets.append(build_mubs(net_from_mols(import_mols(mols26_path)), dft(26)))
    sets.append(tensor_mubs(built_mubs(3), standard_basis(4)))
    sets.append(mixed_root_orders())
    sets.append(as_float_set(built_mubs(2)))
    sets.append(odd_floats())
    sets.append(MubSet(dim=4, bases=(built_mubs(2).bases[0], as_float_set(built_mubs(2)).bases[1])))
    sets.append(MubSet(dim=3, bases=()))
    for n, x in enumerate(sets):
        want = serial.dumps(old_to_dict(x))
        assert mubs_to_json(x) == want
        path = tmp_path / f"{n}.json"
        export_mubs(x, path)
        assert path.read_bytes() == want.encode("utf-8")
    assert mubs_to_dict(mixed_root_orders()) == old_to_dict(mixed_root_orders())
    assert mubs_to_dict(mixed_root_orders())["root_order"] == 6


def test_dict_round_trip():
    x = built_mubs(3)
    assert mubs_from_dict(mubs_to_dict(x)) == x


def test_export_import_round_trip(tmp_path):
    x = built_mubs(3)
    path = tmp_path / "m.json"
    export_mubs(x, path)
    y = import_mubs(path)
    assert y == x
    # canonical form: a second export writes the same bytes
    path2 = tmp_path / "m2.json"
    export_mubs(y, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_serialization_lifts_to_a_common_root_order():
    t = tensor_mubs(built_mubs(2), standard_basis(4))
    doc = mubs_to_dict(t)
    assert doc["root_order"] == 2
    assert mubs_from_dict(doc) == t


def test_import_verifies_and_rejects_tampered_files(tmp_path):
    bad = tampered(built_mubs(3), 0, 0, 0)
    path = tmp_path / "bad.json"
    export_mubs(bad, path)
    with pytest.raises(VerificationFailedError) as err:
        import_mubs(path)
    assert not err.value.report.ok
    assert err.value.report.failing_pairs()


def test_float_documents_verify_in_float():
    doc = mubs_to_dict(as_float_set(built_mubs(2)))
    assert not verified_from_dict(doc).is_exact
    doc["bases"][1][0]["amps_float"][0][1] *= -1  # now parallel to vector 1
    with pytest.raises(VerificationFailedError) as err:
        verified_from_dict(doc)
    assert err.value.report.mode == "float" and err.value.report.failing_pairs()


def test_parse_rejects_malformed_documents():
    good = mubs_to_dict(built_mubs(2))
    for bad in [
        {},
        {**good, "extra": 1},
        {**good, "dim": True},
        {**good, "bases": "nope"},
        {**good, "bases": [[{"norm_sq": 2}] * 4] * 3},
        {**good, "bases": [[{"norm_sq": 2, "amps": [[0, 0]],
                             "amps_float": [[0, 1.0, 0.0]]}] * 4] * 3},
    ]:
        with pytest.raises(ParseError):
            mubs_from_dict(bad)


def test_parse_rejects_oversized_root_orders():
    def doc(m):
        return {"dim": 2, "root_order": m, "bases": [[
            {"norm_sq": 1, "amps": [[0, 0]]},
            {"norm_sq": 1, "amps": [[1, m - 1]]},
        ]]}

    assert mubs_from_dict(doc(MAX_ROOT_ORDER)).root_order == MAX_ROOT_ORDER
    with pytest.raises(ParseError, match="root_order"):
        mubs_from_dict(doc(MAX_ROOT_ORDER + 1))


def test_parse_bounds_the_magnitudes_the_float_oracle_sees():
    # an unbounded norm_sq or float part overflowed the float oracle, and
    # NaN amplitudes passed it
    def doc(n, part):
        return {"dim": 2, "root_order": 1, "bases": [[
            {"norm_sq": n, "amps_float": [[0, part, 0.0]]},
            {"norm_sq": 1, "amps_float": [[1, 1.0, 0.0]]},
        ]]}

    x = mubs_from_dict(doc(MAX_MAGNITUDE, -float(MAX_MAGNITUDE)))
    assert not verify_mubs(x, mode="float").ok
    for n, part in [(MAX_MAGNITUDE + 1, 1.0), (10 ** 400, 1.0), (1, float("nan")),
                    (1, float("inf")), (1, 1e300), (1, 10 ** 400)]:
        with pytest.raises(ParseError) as err:
            mubs_from_dict(serial.loads(serial.dumps(doc(n, part))))
        assert str(err.value).startswith("basis 0 vector 0: ")
        assert str(err.value).count("basis 0 vector 0") == 1


def test_parse_rejects_out_of_range_amplitudes():
    with pytest.raises(ParseError):
        mubs_from_dict({"dim": 2, "root_order": 2, "bases": [[
            {"norm_sq": 1, "amps": [[0, 5]]},  # exponent >= root order
            {"norm_sq": 1, "amps": [[1, 0]]},
        ]]})
    with pytest.raises(ParseError):
        mubs_from_dict({"dim": 2, "root_order": 2, "bases": [[
            {"norm_sq": 1, "amps": [[1, 0], [0, 0]]},  # unsorted positions
            {"norm_sq": 1, "amps": [[1, 0]]},
        ]]})


# -- randomized cross-checks

def lifted(x: MubSet, m: int) -> MubSet:
    """x with every exponent scaled to root order m."""
    return MubSet(dim=x.dim, bases=tuple(MubBasis(tuple(
        MubVector(dim=v.dim, root_order=m, norm_sq=v.norm_sq,
                  amps=tuple((p, e * (m // v.root_order)) for p, e in v.amps))
        for v in basis.vectors)) for basis in x.bases))


@pytest.mark.parametrize("m, code, q", [
    (127, "B", None), (128, "B", 4), (129, "H", 3), (MAX_ROOT_ORDER, "H", 2)])
def test_oracles_agree_at_the_key_field_widths(m, code, q):
    # keys hold e_u - e_v + m, from 1 to 2m - 1, in one array item per
    # position: bytes up to m = 128, 16-bit items above; exponents 0 and
    # m - 1 reach both ends of a field
    assert mub._field_code(m) == code
    rng = random.Random(m)
    net = built_mubs(3)
    spread = MubSet(dim=9, bases=tuple(MubBasis(tuple(
        MubVector(dim=9, root_order=m, norm_sq=3,
                  amps=tuple((p, rng.choice((0, 1, m // 2, m - 1))) for p, _ in v.amps))
        for v in basis.vectors)) for basis in net.bases))
    sets = [spread]
    if q is not None:
        x = lifted(built_mubs(q), m)
        assert verify_mubs(x, mode="exact").ok and verify_mubs(x, mode="float").ok
        for b, i, slot, delta in [(0, 0, 0, m - 1), (1, 1, 1, 1), (2, q, 0, m // 2 + 1)]:
            sets.append(tampered(x, b, i, slot, delta))
    for x in sets:
        exact = verify_mubs(x, mode="exact")
        assert not exact.ok
        assert exact.failing_pairs() == verify_mubs(x, mode="float").failing_pairs()


MUB_KEYS = ["dim", "root_order", "bases", "norm_sq", "amps", "amps_float", "x"]


@settings(max_examples=400, deadline=None)
@given(mutated_documents([mubs_to_dict(built_mubs(2)), mubs_to_dict(standard_basis(3)),
                            mubs_to_dict(as_float_set(built_mubs(2)))], MUB_KEYS))
def test_mutated_documents_end_in_a_parse_error_or_a_report(doc):
    try:
        x = mubs_from_dict(doc)
    except ParseError:
        return
    modes = ["exact", "float"] if x.is_exact else ["float"]
    for mode in modes:
        assert isinstance(verify_mubs(x, mode=mode), MubReport)

@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.data())
def test_random_tamperings_fail_identically(q, data):
    x = built_mubs(q)
    b = data.draw(st.integers(0, x.k - 1))
    i = data.draw(st.integers(0, x.dim - 1))
    slot = data.draw(st.integers(0, q - 1))
    delta = data.draw(st.integers(1, max(x.root_order - 1, 1)))
    if x.root_order < 2:
        return
    bad = tampered(x, b, i, slot, delta)
    exact = verify_mubs(bad, mode="exact")
    approx = verify_mubs(bad, mode="float")
    assert not exact.ok and not approx.ok
    assert exact.failing_pairs() == approx.failing_pairs()


@st.composite
def small_sets(draw) -> MubSet:
    """Sets with no net structure: each vector takes one of a few random
    supports, so supports meet in 0, 1 or more points, and a norm that
    often makes nu*nv differ from d."""
    d = draw(st.integers(2, 9))
    m = draw(st.integers(1, 12))
    masks = draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1, max_size=4))
    bases = []
    for _ in range(draw(st.integers(1, 3))):
        vecs = []
        for _ in range(d):
            mask = draw(st.sampled_from(masks))
            support = [p for p in range(d) if mask >> p & 1]
            norm = draw(st.sampled_from([max(len(support), 1), len(support) + 1, d]))
            exps = draw(st.lists(st.integers(0, m - 1), min_size=len(support),
                                 max_size=len(support)))
            vecs.append(MubVector(dim=d, root_order=m, norm_sq=norm,
                                  amps=tuple(zip(support, exps))))
        bases.append(MubBasis(tuple(vecs)))
    return MubSet(dim=d, bases=tuple(bases))


@settings(max_examples=200, deadline=None)
@given(small_sets())
def test_random_small_sets_fail_both_oracles_identically(x):
    assert verify_mubs(x, mode="exact").failing_pairs() == \
        verify_mubs(x, mode="float").failing_pairs()


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([2, 3]))
def test_tensor_of_verified_sets_verifies(qa, qb):
    t = tensor_mubs(built_mubs(qa), built_mubs(qb))
    assert t.k == min(qa, qb) + 1
    assert verify_mubs(t, mode="float").ok
