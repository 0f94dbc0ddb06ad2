"""Building, verifying, combining and serializing mutually unbiased bases."""

from __future__ import annotations

import cmath
import gc
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import random
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from mubkit import cyclotomic, mub, serial
from mubkit.cyclotomic import TOL, unbiased, vanishes
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
    exps = list(vec.exponents)
    exps[slot] = (exps[slot] + delta) % vec.root_order
    new_vec = vec._replace(exponents=exps)
    vecs = list(x.bases[b].vectors)
    vecs[i] = new_vec
    bases = list(x.bases)
    bases[b] = MubBasis(tuple(vecs))
    return MubSet(dim=x.dim, bases=tuple(bases))


def non_integer_target_set() -> MubSet:
    """Two bases of C^2 whose cross-basis pairs all have nu*nv/d = 3/2."""
    v0 = MubVector(dim=2, root_order=1, norm_sq=1, positions=(0,), exponents=(0,))
    v1 = MubVector(dim=2, root_order=1, norm_sq=1, positions=(1,), exponents=(0,))
    w = MubVector(dim=2, root_order=1, norm_sq=3, positions=(0, 1), exponents=(0, 0))
    return MubSet(dim=2, bases=(MubBasis((v0, v1)), MubBasis((w, w))))


def as_float_set(x: MubSet, turn: dict[tuple[int, int], float] | None = None) -> MubSet:
    """The same set with every amplitude converted to a complex literal;
    turn[b, i] = t multiplies the last amplitude of vector i of basis b by
    exp(i*t), which keeps its modulus."""
    bases = []
    for b, basis in enumerate(x.bases):
        vecs = []
        for i, v in enumerate(basis.vectors):
            fm = v.float_map()
            amps_f = [fm[p] for p in v.positions]
            if turn and (b, i) in turn:
                amps_f[-1] *= cmath.exp(1j * turn[b, i])
            vecs.append(MubVector(dim=v.dim, root_order=1, norm_sq=v.norm_sq,
                                  positions=v.positions, amplitudes=amps_f))
        bases.append(MubBasis(tuple(vecs)))
    return MubSet(dim=x.dim, bases=tuple(bases))


# -- vectors and embedding

def test_vector_requires_exactly_one_representation():
    with pytest.raises(ValueError):
        MubVector(dim=2, root_order=2, norm_sq=1, positions=(0,))
    with pytest.raises(ValueError):
        MubVector(dim=2, root_order=2, norm_sq=1, positions=(0,),
                  exponents=(0,), amplitudes=(1 + 0j,))


def test_vector_validates_positions_and_exponents():
    with pytest.raises(ValueError):
        MubVector(dim=2, root_order=2, norm_sq=1, positions=(2,), exponents=(0,))
    with pytest.raises(ValueError):
        MubVector(dim=3, root_order=2, norm_sq=2, positions=(1, 0), exponents=(0, 0))
    with pytest.raises(ValueError):
        MubVector(dim=2, root_order=2, norm_sq=1, positions=(0,), exponents=(2,))


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
    positions, exponents = zip(*amps)
    with pytest.raises(ValueError) as err:
        MubVector(dim=dim, root_order=4, norm_sq=1, positions=positions, exponents=exponents)
    assert str(err.value) == message
    if "exponent" not in message:  # float amplitudes carry no exponent
        with pytest.raises(ValueError) as err:
            MubVector(dim=dim, root_order=1, norm_sq=1, positions=positions,
                      amplitudes=[1j] * len(amps))
        assert str(err.value) == message


def test_vector_refuses_a_length_mismatch_after_the_old_faults():
    # a size below 1 and a missing or doubled value tuple keep their
    # messages; then each position needs exactly one value
    def error(*args, **kw):
        with pytest.raises(ValueError) as err:
            MubVector(*args, **kw)
        return str(err.value)

    assert error(0, 2, 1, (0,), (0,)) == error(2, 0, 1, (0,), (0,)) == error(2, 2, 0, (0,), (0,)) \
        == "dim, root_order and norm_sq must be positive"
    assert error(2, 2, 1, (0,)) == error(2, 2, 1, (0,), (0,), (1j,)) \
        == "exactly one of exponents and amplitudes must be given"
    assert error(4, 2, 2, (0, 3), (0,)) == "1 values for 2 positions"
    assert error(4, 2, 2, (0, 3), (0, 1, 1)) == "3 values for 2 positions"
    assert error(4, 1, 2, (0, 3), amplitudes=(1j,)) == "1 values for 2 positions"
    assert error(4, 2, 1, (), (1,)) == "1 values for 0 positions"
    # the length check comes before the per-value walk, which would stop
    # at the shorter side
    assert error(4, 2, 2, (0, 3), (0, 9, 9)) == "3 values for 2 positions"
    # tuples are kept as they are, and other sequences copied
    positions, exponents = (0, 3), [0, 1]
    v = MubVector(4, 2, 2, positions, exponents)
    assert v.positions is positions and v.exponents == (0, 1)
    exponents[0] = 1
    assert v.exponents == (0, 1)


def test_embed_places_row_entries_at_support_positions():
    # weight-3 mask over 9 points, row (1, w, w^2) against the cube root
    mask = IncidenceVector.from_bits01("101000001")
    v = embed((0, 1, 2), 3, mask)
    assert v == MubVector(dim=9, root_order=3, norm_sq=3, positions=(0, 2, 8),
                          exponents=(0, 1, 2))
    fm = v.float_map()
    assert abs(fm[0] - 1) < TOL
    assert abs(fm[2] - complex(-0.5, math.sqrt(3) / 2)) < TOL
    assert abs(fm[8] - complex(-0.5, -math.sqrt(3) / 2)) < TOL


def test_embed_rejects_weight_mismatch():
    mask = IncidenceVector.from_bits01("101000001")
    with pytest.raises(ValueError, match="WeightMismatch"):
        embed((0, 1), 3, mask)


# -- construction

def test_build_square_2_reproduces_the_reference_bases():
    net = net_from_mols(MolsSet(2, (cyclic_square(2),)))
    got = build_mubs(net, dft(2))

    def v(positions, exponents):
        return MubVector(dim=4, root_order=2, norm_sq=2, positions=positions,
                         exponents=exponents)

    want = MubSet(dim=4, bases=(
        MubBasis((v((0, 1), (0, 0)), v((0, 1), (0, 1)),
                  v((2, 3), (0, 0)), v((2, 3), (0, 1)))),
        MubBasis((v((0, 2), (0, 0)), v((0, 2), (0, 1)),
                  v((1, 3), (0, 0)), v((1, 3), (0, 1)))),
        MubBasis((v((0, 3), (0, 0)), v((0, 3), (0, 1)),
                  v((1, 2), (0, 0)), v((1, 2), (0, 1)))),
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


# sha256 of mubs_to_json(build_mubs(net_from_mols(mols), dft(s))), the
# complete MOLS set for s < 26 and tests/data/mols26.json for s = 26, as
# written when every vector was made by MubVector's own checked constructor
BUILT_JSON_SHA256 = {
    2: "ade018b493d499b955677ad7bf7230fc9cda2d9a2c2b5d841b8444b24fe29ffd",
    3: "6bfca387c6e141aebbc324f5d98b4bef709ec27e4fc43a409141075854bb27cd",
    4: "c4bf86acd2ecccdb85c87b167899ce9f7071368fa886c584289e0608ae8b7982",
    5: "604d8c3c960743d2e579862d41c95b286ad066421529f8f954497624facc90eb",
    9: "5ee9f58d6fbdf164eeb829c013c811c40fc927aca9eb86cf68d1c3a300bf6d25",
    16: "6ac37b11f84889d3c59f1748dd3a675e9b342f6eefd8f02706da1aff786cd8ae",
    26: "70c16a8fb820a7c2faf704a10e73414f9f397b8d7288669a8ba411002265c51e",
}


@pytest.mark.parametrize("s", sorted(BUILT_JSON_SHA256))
def test_built_vectors_are_the_checked_embeddings(s, mols26_path):
    mols = import_mols(mols26_path) if s == 26 else complete_mols_prime_power(s)
    net, had = net_from_mols(mols), dft(s)
    x = build_mubs(net, had)
    got = [v for basis in x.bases for v in basis.vectors]
    supports = [vec for block in net.blocks for vec in block]
    assert got == [embed(row, s, vec) for vec in supports for row in had.exponents]
    assert got == [MubVector(dim=net.d, root_order=s, norm_sq=s, positions=vec.support,
                             exponents=row)
                   for vec in supports for row in had.exponents]
    assert all(MubVector._make(v) == v for v in got)
    assert pickle.loads(pickle.dumps(x)) == x
    assert hashlib.sha256(mubs_to_json(x).encode()).hexdigest() == BUILT_JSON_SHA256[s]


@pytest.mark.parametrize("rows", [tuple, list])
def test_built_vectors_share_the_nets_supports_and_the_matrix_rows(rows):
    # each vector holds its incidence vector's cached support and its row
    # as they are: a tuple row itself, a list row copied once for all the
    # vectors that hold it
    for s in (2, 3, 4):
        net = net_from_mols(complete_mols_prime_power(s))
        had = GenHadamard(s, rows(map(rows, dft(s).exponents)))
        x = build_mubs(net, had)
        got = [v for basis in x.bases for v in basis.vectors]
        held = [(vec.support, r) for block in net.blocks for vec in block
                for r in range(s)]
        assert len(got) == len(held)
        assert all(v.positions is support for v, (support, _) in zip(got, held))
        assert all(v.exponents == tuple(had.exponents[r]) for v, (_, r) in zip(got, held))
        shared = {r: v.exponents for v, (_, r) in zip(got, held)}
        assert all(v.exponents is shared[r] for v, (_, r) in zip(got, held))
        if rows is tuple:
            assert all(shared[r] is had.exponents[r] for r in range(s))


def test_matrices_of_root_order_above_k_s_build_without_a_pair_table():
    # rows (0, 1) and (0, 3) at m = 4 are orthogonal, 1 + w^-2 = 0, and
    # m = 4 exceeds k*s for one basis of C^4 (2) but not for three (6):
    # both build the embeddings, whatever the root order
    had = GenHadamard(4, ((0, 1), (0, 3)))
    full = net_from_mols(MolsSet(2, (cyclic_square(2),)))
    for net in (Net(2, full.blocks[:1]), full):
        x = build_mubs(net, had)
        vecs = [v for basis in x.bases for v in basis.vectors]
        assert vecs == [embed(row, 4, vec) for block in net.blocks for vec in block
                        for row in had.exponents]


def test_bad_rows_and_supports_raise_as_the_checked_constructor_does():
    mask = IncidenceVector.from_bits01("101000001")

    def constructor_error(dim, m, positions, row):
        with pytest.raises(ValueError) as err:
            MubVector(dim=dim, root_order=m, norm_sq=len(row), positions=positions, exponents=row)
        return str(err.value)

    for row, m in [((0, 1, 3), 3), ((0, -1, 2), 3), ((7, 0, 9), 3), ((0, 0, 0), 0)]:
        with pytest.raises(ValueError) as err:
            embed(row, m, mask)
        assert str(err.value) == constructor_error(9, m, mask.support, row)
    # a support that the bits of an unchecked IncidenceVector put past its length
    past_end = tuple.__new__(IncidenceVector, (3, 0b1001))
    with pytest.raises(ValueError) as err:
        embed((0, 1), 2, past_end)
    assert str(err.value) == constructor_error(3, 2, (0, 3), (0, 1)) \
        == "position 3 out of range for dim 3"
    # a short row, a short second row after a full one, and an empty row on
    # an empty support, each row embedded in turn
    for rows, vec, message in [
            (((0, 1),), mask, "WeightMismatch: row length 2 vs support weight 3"),
            (((0, 1, 2), (0, 1)), mask, "WeightMismatch: row length 2 vs support weight 3"),
            (((),), IncidenceVector(4, 0), "dim, root_order and norm_sq must be positive")]:
        with pytest.raises(ValueError) as err:
            for row in rows:
                embed(row, 3, vec)
        assert str(err.value) == message


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
            m, diffs = inner_product(v, v)
            assert len(diffs) == v.norm_sq and unbiased(m, diffs, 1, v.norm_sq ** 2)


def test_cross_basis_products_have_unit_square_modulus():
    x = built_mubs(3)
    for u in x.bases[0].vectors:
        for v in x.bases[2].vectors:
            assert unbiased(*inner_product(u, v), 1, 1)


def test_inner_product_lifts_mixed_root_orders():
    std = standard_basis(4).bases[0].vectors
    built = built_mubs(2).bases[0].vectors
    m, diffs = inner_product(std[0], built[0])  # root orders 1 and 2
    assert m == 2 and diffs == [0]
    assert vanishes(m, diffs + [1]) and unbiased(m, diffs, 1, 1)


def test_float_inner_product_tracks_exact():
    x = built_mubs(3)
    vecs = [v for basis in x.bases for v in basis.vectors]
    for u in vecs[:6]:
        for v in vecs[:6]:
            fu, fv = u.float_map(), v.float_map()
            s = sum(fu[p] * fv[p].conjugate() for p in fu.keys() & fv.keys())
            assert abs(approx(*inner_product(u, v)) - s) < 1e-7


def test_cross_basis_supports_meet_exactly_once():
    # the structural reason unbiasedness holds: a cross-basis product is a
    # single root of unity because exactly one position is shared
    for q in (2, 3, 4):
        x = built_mubs(q)
        for b in range(x.k):
            for c in range(b + 1, x.k):
                for u in x.bases[b].vectors:
                    for v in x.bases[c].vectors:
                        common = set(u.positions) & set(v.positions)
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
    assert verify_mubs(x, mode="float", jobs=2) == verify_mubs(x, mode="float", jobs=1)
    bad = tampered(x, 1, 2, 0)
    assert verify_mubs(bad, mode="float", jobs=2) == verify_mubs(bad, mode="float", jobs=1)


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
    bad = tampered(x, 1, 2, 0)
    # the exact oracle never starts a pool, whatever jobs asks for
    assert verify_mubs(x, jobs=64).ok
    assert verify_mubs(bad, jobs=64) == verify_mubs(bad)
    assert started == []
    # the float oracle starts min(jobs, basis pairs, usable CPUs) workers
    assert verify_mubs(bad, mode="float", jobs=64) == verify_mubs(bad, mode="float")
    assert verify_mubs(x, mode="float", jobs=2).ok
    two = MubSet(dim=9, bases=x.bases[:2])  # 3 basis pairs
    assert verify_mubs(two, mode="float", jobs=64).ok
    assert started == [4, 2, 3]


@pytest.mark.parametrize("q", [4, 5, 7, 9])
def test_built_sets_settle_every_cross_pair_by_the_support_identity(q, monkeypatch):
    # every cross-basis pair of supports meets once with nu*nv = d, so no
    # unbiasedness test runs; within a basis every overlapping pair is two
    # rows of the DFT on one support, so at most C(q, 2) zero tests are
    # distinct
    x = built_mubs(q)
    calls = {"unbiased": 0, "vanishes": 0}

    def counting(name, test):
        def call(*args):
            calls[name] += 1
            return test(*args)
        return call

    monkeypatch.setattr(mub, "unbiased", counting("unbiased", unbiased))
    monkeypatch.setattr(mub, "vanishes", counting("vanishes", vanishes))
    assert verify_mubs(x, mode="exact").ok
    assert calls["unbiased"] == 0
    assert 0 < calls["vanishes"] <= q * (q - 1) // 2


@pytest.mark.parametrize("q", [4, 5, 7, 9])
def test_built_sets_decide_their_one_row_block_once(q, monkeypatch):
    # every support group of every basis holds the q rows of the DFT, so
    # the first group decides the C(q, 2) row pairs and all k*q groups
    # reuse the verdicts; cross-basis pairs need no test at all.  The set
    # is built before the count starts: building it verifies the DFT too.
    x = built_mubs(q)
    calls = []
    memo_test = mub._memo_test

    def counting(*args):
        calls.append(args)
        return memo_test(*args)

    monkeypatch.setattr(mub, "_memo_test", counting)
    assert verify_mubs(x, mode="exact").ok
    assert len(calls) == q * (q - 1) // 2


def quadratic_phase(p: int, twists: int | None = None) -> MubSet:
    """The p + 1 bases of C^p for an odd prime p: the computational basis,
    then for each a the vectors w^(a x^2 + b x), b = 0..p-1; with twists,
    only the bases of a < twists follow the computational basis."""
    twisted = [MubBasis(tuple(MubVector(dim=p, root_order=p, norm_sq=p, positions=range(p),
                                        exponents=[(a * x * x + b * x) % p for x in range(p)])
                              for b in range(p)))
               for a in range(p if twists is None else twists)]
    return MubSet(dim=p, bases=standard_basis(p).bases + tuple(twisted))


@pytest.mark.parametrize("m", [12, 132])
def test_a_tensor_set_decides_each_pair_of_phase_classes_once(m, monkeypatch):
    # qp3 x WB(4): 4 bases of C^48, C(192, 2) = 18,336 vector pairs.  A
    # product group meets a group of another basis in 3 points, where its
    # rows are the 3 rows of qp3 up to a phase, so one pair of classes
    # stands for 16 vector pairs, and the 3 class keys of either side are
    # cosets of the one subgroup of linear phases, so 3 keys decide the
    # 3 x 3 pairs of classes; the set is taken as built, m = 12, and
    # lifted to m = 132, where its rows sit in 16-bit fields
    x = tensor_mubs(quadratic_phase(3), built_mubs(4))
    assert x.root_order == 12
    x = lifted(x, m)
    calls = {"memo": 0, "unbiased": 0, "vanishes": 0}

    def counting(name, test):
        def call(*args):
            calls[name] += 1
            return test(*args)
        return call

    monkeypatch.setattr(mub, "_memo_test", counting("memo", mub._memo_test))
    monkeypatch.setattr(mub, "unbiased", counting("unbiased", unbiased))
    monkeypatch.setattr(mub, "vanishes", counting("vanishes", vanishes))
    assert verify_mubs(x, mode="exact").ok
    pairs = x.k * x.dim * (x.k * x.dim - 1) // 2
    assert pairs == 18_336
    assert calls["memo"] == 348 < pairs // 10
    assert calls["vanishes"] + calls["unbiased"] <= 7 + 16
    assert verify_mubs(x, mode="float").ok


def test_a_dense_set_decides_each_pair_of_bases_by_one_key_per_class(monkeypatch):
    # qp31: each of the 31 twisted bases is one group on all 31 points
    # whose class keys are a coset of the linear phases b*x, so each of the
    # C(31, 2) pairs of them takes 31 keys instead of 31 x 31; each basis's
    # own 465 class pairs are walked, and the computational basis meets
    # every other group in one point: 465*31 + 31*465 = 28,830 (461,280
    # with every cross pair of classes walked)
    x = quadratic_phase(31)
    calls = []
    memo_test = mub._memo_test

    def counting(*args):
        calls.append(args)
        return memo_test(*args)

    monkeypatch.setattr(mub, "_memo_test", counting)
    assert verify_mubs(x, mode="exact").ok
    assert len(calls) == 28_830


def test_a_dense_set_reports_the_same_with_two_jobs():
    x = quadratic_phase(17)
    bad = tampered(x, 3, 5, 2)
    assert not verify_mubs(bad, mode="float").ok
    for y in (x, bad):
        assert verify_mubs(y, mode="float", jobs=2) == verify_mubs(y, mode="float", jobs=1)


def coset_basis(m: int, base, offsets, turns, norm: int) -> MubBasis:
    """Vectors on all len(base) points at root order m, vector j holding
    the exponents base + offsets[j] + turns[j] mod m: offsets[j] a row and
    turns[j] one constant, a turn of the whole vector by a phase."""
    return MubBasis(tuple(
        MubVector(dim=len(base), root_order=m, norm_sq=norm, positions=range(len(base)),
                  exponents=[(e + h + turn) % m for e, h in zip(base, row)])
        for row, turn in zip(offsets, turns)))


# Two bases of C^4, exponents in quarter turns: G = (0, 1, 2, 3) is a
# Fourier character and F = (0, 0, 2, 2) has order 2.  Each case names a
# basis by (base, offsets, turns, norm); norms 2 and 4 put the cross target
# d*|S|^2 = nu*nv at |S|^2 = 2.
_O, _G, _2G, _3G, _F = (0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 2), (0, 3, 2, 1), (0, 0, 2, 2)
_COSET_CASES = {
    # offsets {0, G, 3G} on both sides: no subgroup, since G - 3G = 2G is
    # missing; the keys for 0, G and 3G all pass, and only the class pairs
    # 2G apart fail
    "not_closed": (((0, 2, 0, 3), (_O, _G, _3G, _O), (0, 0, 0, 1), 2),
                   (_O, (_O, _G, _3G, _O), (0, 0, 0, 1), 4),
                   {(0, 1, 1, 2), (0, 2, 1, 1)}),
    # subgroups {0, 2G} and {0, F} of one size: the keys for 0 and 2G pass,
    # and only the class pairs F apart fail
    "other_subgroup": (((0, 0, 2, 3), (_O, _2G, _O, _2G), (0, 0, 1, 1), 2),
                       (_O, (_O, _F, _O, _F), (0, 0, 1, 1), 4),
                       {(0, i, 1, j) for i in (0, 2) for j in (1, 3)}),
    # one subgroup {0, 2G} on both sides: the key for 0 fails and the key
    # for 2G passes, so the pairs of equal offsets fail
    "failing_key": (((0, 0, 0, 1), (_O, _2G, _O, _2G), (0, 0, 1, 1), 2),
                    (_O, (_O, _2G, _O, _2G), (0, 0, 1, 1), 4),
                    {(0, i, 1, j) for i in range(4) for j in range(4) if i % 2 == j % 2}),
}


@pytest.mark.parametrize("m", [4, 132])
@pytest.mark.parametrize("case", sorted(_COSET_CASES))
def test_class_keys_off_one_coset_take_the_walk(case, m):
    # at m = 132 the rows sit in 16-bit fields
    *bases, across = _COSET_CASES[case]
    f = m // 4
    x = MubSet(dim=4, bases=tuple(
        coset_basis(m, [f * e for e in base], [[f * e for e in row] for row in offsets],
                    [f * t for t in turns], norm)
        for base, offsets, turns, norm in bases))
    exact = verify_mubs(x, mode="exact").failing_pairs()
    assert exact == exact_failing_pairs(x) == verify_mubs(x, mode="float").failing_pairs()
    assert {pair for pair in exact if pair[0] < pair[2]} == across


def subgroup(gens, m: int) -> list[tuple[int, ...]]:
    """The rows mod m that sums of gens reach, the zero row first."""
    found = [(0,) * len(gens[0])]
    seen = set(found)
    for row in found:  # grows while it is read
        for g in gens:
            step = tuple((a + b) % m for a, b in zip(row, g))
            if step not in seen:
                seen.add(step)
                found.append(step)
    return found


def coset_set(rng: random.Random, wide: bool) -> MubSet:
    """Two or three bases of C^d, each one group of d vectors on all d
    points, vector j holding base_b + offsets[j] plus at times a turn by a
    constant.  Either d = p = 3 or 5 at root order p, the offsets the p
    linear phases b*x and base_b the quadratic phase a_b*x^2 plus a
    linear one, an unbiased set; or d = 4 at root order 4, the offsets a
    random subgroup of 2 to 4 rows and every base random, where |S|^2 is
    an integer: the norms mostly set the target to |S|^2 of one pair of
    offsets, so some keys meet it and others do not.  When wide, every
    exponent is lifted to a root order above 128, so 16-bit fields.

    One case is drawn: "cosets" keeps the offsets a subgroup H on every basis; "moved" takes
    one row out of its coset; "other subgroup" gives basis 0 another one
    of the same size; "not closed" gives every basis one set of offsets
    that holds 0, listed first, and is no subgroup; "same phase" repeats
    base_0 on basis 1; "norm" changes basis 1's norm."""
    case = rng.choice(["cosets", "moved", "other subgroup", "not closed", "same phase", "norm"])
    if rng.random() < 0.5:
        d = m0 = rng.choice([3, 5])
        norms = [d] * 3

        def random_group(size):  # every one has p rows
            return subgroup([[0, 1] + [rng.randrange(d) for _ in range(d - 2)]], d)

        group = subgroup([list(range(d))], d)
        phases = rng.sample(range(d), 3)
        bases = [[(a * x * x + rng.randrange(d) * x) % d for x in range(d)] for a in phases]
    else:
        d = m0 = 4
        norms = None

        def random_group(size):
            while True:
                gens = [[0] + [rng.randrange(4) for _ in range(3)] for _ in range(rng.choice([1, 2]))]
                found = subgroup(gens, 4)
                if 2 <= len(found) <= 4 and len(found) == (size or len(found)):
                    return found

        group = random_group(None)
        bases = [[rng.randrange(4) for _ in range(4)] for _ in range(3)]
    k = rng.choice([2, 3])
    if case == "same phase":
        bases[1] = bases[0]
    offsets = [list(group) for _ in range(k)]
    if case == "other subgroup":
        offsets[0] = random_group(len(group))
    elif case == "not closed":
        subset = [group[0]] + rng.sample(group[1:], rng.randrange(1, min(len(group), d - 1)))
        if len(subgroup(subset, m0)) == len(subset):  # closed after all: add a stray row
            subset.append(tuple([0] + [rng.randrange(m0) for _ in range(d - 1)]))
        offsets = [list(subset)] * k
    if norms is None:
        # nu*nv = d*|S|^2 for one pair of offsets, so its key passes
        norms = [4]
        for b in range(1, k):
            u = [e + h for e, h in zip(bases[0], rng.choice(offsets[0]))]
            v = [e + h for e, h in zip(bases[b], rng.choice(offsets[b]))]
            square = abs(sum(1j ** ((a - c) % 4) for a, c in zip(u, v))) ** 2
            norms.append(max(round(square), 1) if rng.random() < 0.8 else rng.choice([1, 2, 8]))
    if case == "norm":
        norms[1] += 1
    t = rng.randrange(129 // m0 + 1, 129 // m0 + 4) if wide else 1
    m = m0 * t
    out = []
    for b in range(k):
        rows = list(offsets[b])
        rows += [rng.choice(rows) for _ in range(d - len(rows))]
        turns = [rng.randrange(m0) if rng.random() < 0.4 else 0 for _ in rows]
        if case != "not closed":
            rng.shuffle(rows)
        vecs = list(coset_basis(m, [t * e for e in bases[b]], [[t * e for e in row] for row in rows],
                                [t * c for c in turns], norms[b]).vectors)
        if case == "moved" and b == 0:
            j = rng.randrange(d)
            vecs[j] = vecs[j]._replace(positions=range(d),
                                       exponents=[rng.randrange(m) for _ in range(d)])
        out.append(MubBasis(tuple(vecs)))
    return MubSet(dim=d, bases=tuple(out))


@pytest.mark.parametrize("wide", [False, True])
@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_coset_bases_keep_exact_verdicts(wide, seed):
    x = coset_set(random.Random(seed), wide)
    exact = verify_mubs(x, mode="exact").failing_pairs()
    assert exact == exact_failing_pairs(x) == verify_mubs(x, mode="float").failing_pairs()


@pytest.mark.parametrize("m", [4, 260])
def test_rows_one_phase_apart_fail_inside_their_group(m):
    # Fourier rows 0 and 1 on four points, then the same rows turned by a
    # constant exponent: each turned row fails against its original,
    # S = 4*w^(-c), and passes against the other class; at m = 260 the
    # rows sit in 16-bit fields
    f = m // 4
    rows = [[k * p * f for p in range(4)] for k in (0, 1)]
    rows += [[(e + c * f) % m for e in row] for row, c in zip(rows, (1, 2))]
    vecs = [MubVector(dim=4, root_order=m, norm_sq=4, positions=range(4), exponents=row)
            for row in rows]
    x = MubSet(dim=4, bases=(MubBasis(tuple(vecs)),))
    exact = verify_mubs(x, mode="exact").failing_pairs()
    assert exact == verify_mubs(x, mode="float").failing_pairs() == exact_failing_pairs(x)
    assert exact == {(0, 0, 0, 2), (0, 1, 0, 3)}


def test_vectors_on_no_point_make_no_orthogonality_failure():
    # basis 0 holds three vectors on no point next to two that split the
    # points, so its supports partition them with an empty group; each
    # empty vector breaks its norm, and nothing else inside the basis
    hadamard2 = [MubVector(dim=5, root_order=2, norm_sq=2, positions=(0, 1), exponents=(0, e))
                 for e in (0, 1)]
    empty = [MubVector(dim=5, root_order=2, norm_sq=1, positions=(), exponents=())
             for _ in range(2)]
    rest = [MubVector(dim=5, root_order=2, norm_sq=3, positions=(2, 3, 4), exponents=(0, 1, 0))]
    x = MubSet(dim=5, bases=(MubBasis(tuple(empty + hadamard2 + rest)),
                             MubBasis(tuple(hadamard2 + empty + empty[:1]))))
    for mode in ("exact", "float"):
        report = verify_mubs(x, mode=mode)
        assert not any(v.kind == "orthogonality" for v in report.violations)
    exact = verify_mubs(x, mode="exact").failing_pairs()
    assert exact == verify_mubs(x, mode="float").failing_pairs() == exact_failing_pairs(x)
    assert {(b, i) for b, i, c, j in exact if b == c} == {(0, 0), (0, 1), (1, 2), (1, 3), (1, 4)}


def partitioned_set(rng: random.Random) -> MubSet:
    """Two or three bases of C^(q^2) whose supports partition the points:
    the supports of built_mubs(q), shuffled across bases, each support
    holding as many vectors as points.  Some bases move one point to
    another support, so two groups meet twice, merge two supports, so the
    group counts no longer multiply to d, or trade a vector for one on no
    point, an extra group.  A basis gives each support its size or q as
    its norm, at times plus one, and a support's rows may hold two one
    phase apart."""
    q = rng.choice([2, 3])
    d = q * q
    m = rng.choice([q, 2 * q, 130])
    net = built_mubs(q)
    bases = []
    for b in rng.sample(range(net.k), rng.choice([2, 3])):
        supports = [list(net.bases[b].vectors[i * q].positions) for i in range(q)]
        change = rng.choice(["none", "none", "move", "merge", "empty"])
        if change == "move":
            src, dst = rng.sample(range(q), 2)
            supports[dst].append(supports[src].pop(rng.randrange(q)))
        elif change == "merge":
            supports[0] += supports.pop()
        vecs = []
        sized = rng.random() < 0.5
        for support in supports:
            support.sort()
            w = len(support)
            norm = (w if sized else q) + (rng.random() < 0.1)
            rows = [[rng.choice((0, k * p * m // w % m if m % w == 0 else rng.randrange(m)))
                     for p in range(w)] for k in range(w)]
            if rng.random() < 0.4:
                c = rng.randrange(1, m)
                rows[-1] = [(e + c) % m for e in rows[0]]
            vecs += [MubVector(dim=d, root_order=m, norm_sq=norm, positions=support,
                               exponents=row) for row in rows]
        if change == "empty":
            vecs[-1] = vecs[-1]._replace(positions=(), exponents=())
        rng.shuffle(vecs)
        bases.append(MubBasis(tuple(vecs)))
    return MubSet(dim=d, bases=tuple(bases))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_partitioned_bases_keep_exact_verdicts(seed):
    x = partitioned_set(random.Random(seed))
    exact = verify_mubs(x, mode="exact").failing_pairs()
    assert exact == exact_failing_pairs(x) == verify_mubs(x, mode="float").failing_pairs()


def test_partitioned_bases_report_the_same_with_two_jobs():
    rng = random.Random(11)
    sets = [partitioned_set(rng) for _ in range(6)]
    assert any(not verify_mubs(x, mode="float").ok for x in sets)
    for x in sets:
        assert verify_mubs(x, mode="float", jobs=2) == verify_mubs(x, mode="float", jobs=1)


def shuffled(x: MubSet, seed: int) -> MubSet:
    """Copy of x with each basis's vectors in a seeded random order."""
    rng = random.Random(seed)
    return MubSet(dim=x.dim, bases=tuple(
        MubBasis(tuple(rng.sample(basis.vectors, x.dim))) for basis in x.bases))


def test_shuffled_net_supports_settle_every_cross_pair_at_once(monkeypatch):
    # the supports of built_mubs(3), each basis's vectors shuffled: every
    # pair of bases tiles the points, so no unbiasedness test runs
    x = shuffled(built_mubs(3), 5)
    monkeypatch.setattr(mub, "unbiased", None)  # any call fails
    assert verify_mubs(x, mode="exact").ok


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
    vecs = [MubVector(dim=4, root_order=2, norm_sq=1, positions=(0,), exponents=(1,)),
            MubVector(dim=4, root_order=2, norm_sq=1, positions=(0,), exponents=(0,)),
            MubVector(dim=4, root_order=2, norm_sq=2, positions=(1, 2), exponents=(1, 0)),
            MubVector(dim=4, root_order=2, norm_sq=2, positions=(1, 2), exponents=(0, 0))]
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
    vecs = [MubVector(dim=4, root_order=2, norm_sq=norm, positions=(0, 1), exponents=(0, e))
            for norm in (2, 3) for e in (0, 1)]
    for order in (vecs, vecs[::-1]):
        x = MubSet(dim=4, bases=(MubBasis(tuple(order)),))
        exact = verify_mubs(x, mode="exact").failing_pairs()
        assert exact == verify_mubs(x, mode="float").failing_pairs() == exact_failing_pairs(x)
    assert exact == {(0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 0, 2), (0, 1, 0, 3)}


def test_the_within_basis_walk_visits_each_sharing_pair_of_groups_once(monkeypatch):
    # groups on {0, 1} (one vector), {1, 2} (two), {3, 4} (two), {4, 5}
    # (one) and {6, 7} (two): the first two and the middle two meet in one
    # point, each group's later points among them, and the last is
    # disjoint.  Each sharing pair g < h is decided once, and a group
    # with itself only when it holds two vectors.
    def vec(support, e):
        return MubVector(dim=8, root_order=2, norm_sq=2, positions=support, exponents=(0, e))

    x = MubSet(dim=8, bases=(MubBasis((
        vec((0, 1), 0), vec((1, 2), 0), vec((1, 2), 1), vec((3, 4), 0), vec((3, 4), 1),
        vec((4, 5), 0), vec((6, 7), 0), vec((6, 7), 1))),))
    calls = []
    group_pair_failures = mub._group_pair_failures

    def counting(m, d, memo, cache, tag, gu, gv, common):
        calls.append((tuple(gu[3]), tuple(gv[3])))
        return group_pair_failures(m, d, memo, cache, tag, gu, gv, common)

    monkeypatch.setattr(mub, "_group_pair_failures", counting)
    exact = verify_mubs(x, mode="exact").failing_pairs()
    assert calls == [((0,), (1, 2)), ((1, 2), (1, 2)), ((3, 4), (3, 4)), ((3, 4), (5,)),
                     ((6, 7), (6, 7))]
    assert exact == verify_mubs(x, mode="float").failing_pairs() == exact_failing_pairs(x)
    assert exact == {(0, 0, 0, 1), (0, 0, 0, 2), (0, 3, 0, 5), (0, 4, 0, 5)}


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
        return [MubVector(dim=6, root_order=4, norm_sq=len(support), positions=support,
                          exponents=[rng.randrange(4) for _ in support]) for _ in range(3)]

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
    # first zero test builds a list of that many counts and slices it down
    # the tower, far beyond what a test can wait for; the float oracle
    # still answers
    assert mub.MAX_ROOT_ORDER == cyclotomic.MAX_ROOT_ORDER
    x = MubSet(dim=2, bases=(MubBasis(tuple(
        MubVector(dim=2, root_order=m, norm_sq=2, positions=(0, 1), exponents=(0, 1))
        for m in (4093, 4091))),))
    start = time.perf_counter()
    # the verifier, the writer and the ring test refuse with one text
    for refuse in [lambda: verify_mubs(x, mode="exact"), lambda: mubs_to_json(x),
                   lambda: vanishes(4093 * 4091, [0, 1])]:
        with pytest.raises(ValueError, match=(
                f"^TooLarge: root order 16744463 exceeds the limit {MAX_ROOT_ORDER}$")):
            refuse()
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
    vecs = tuple(MubVector(dim=d, root_order=m, norm_sq=2, positions=(2 * g, 2 * g + 1),
                           exponents=row)
                 for g, rows in enumerate(blocks) for row in rows)
    x = MubSet(dim=d, bases=(MubBasis(vecs),))
    exact = verify_mubs(x, mode="exact")
    assert not exact.ok
    assert exact.failing_pairs() == verify_mubs(x, mode="float").failing_pairs()


def random_dense_set(rng: random.Random, d: int, k: int, m: int) -> MubSet:
    """k bases of d full-support vectors with random exponents of order m."""
    return MubSet(dim=d, bases=tuple(MubBasis(tuple(
        MubVector(dim=d, root_order=m, norm_sq=d, positions=range(d),
                  exponents=[rng.randrange(m) for _ in range(d)])
        for _ in range(d))) for _ in range(k)))


@pytest.mark.parametrize("m", [4095, 4096])
def test_random_dense_documents_verify_exactly_within_the_budget(m):
    # no structure for a shortcut or the memo to use, so every vector pair
    # takes its own ring test, at an order of many primes (4095) or of
    # one prime repeated (4096)
    x = random_dense_set(random.Random(m), 31, 2, m)
    start = time.perf_counter()
    exact = verify_mubs(x, mode="exact")
    assert time.perf_counter() - start < 5
    assert len(exact.violations) == 2 * math.comb(31, 2) + 31 * 31
    assert exact.failing_pairs() == verify_mubs(x, mode="float").failing_pairs()


def test_verify_rejects_unknown_modes():
    with pytest.raises(ValueError, match="mode"):
        verify_mubs(built_mubs(2), mode="approximate")


@pytest.mark.parametrize("jobs", [0, -3])
def test_verify_rejects_fewer_than_one_job(jobs):
    with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
        verify_mubs(built_mubs(2), jobs=jobs)


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


def every_failure_kind_set() -> MubSet:
    """Two bases of C^4 at root order 4 whose exact report holds each way a
    pair of support groups can fail.  Basis 0 is u0 = (1, 1, 0, 0),
    u1 = (0, 1, i, 0), u2 = (1, -1, 0, 0) and u3 = (0, 0, 0, 1) of norm 2;
    basis 1 is two DFT rows and (1, 0, 1, 0), (0, 1, 0, 1)."""
    def vec(amps: dict[int, int], norm_sq: int) -> MubVector:
        return MubVector(dim=4, root_order=4, norm_sq=norm_sq, positions=amps.keys(),
                         exponents=amps.values())

    return MubSet(dim=4, bases=(
        MubBasis((vec({0: 0, 1: 0}, 2), vec({1: 0, 2: 1}, 2), vec({0: 0, 1: 2}, 2),
                  vec({3: 0}, 2))),
        MubBasis((vec({0: 0, 1: 1, 2: 2, 3: 3}, 4), vec({0: 0, 1: 3, 2: 2, 3: 1}, 4),
                  vec({0: 0, 2: 0}, 2), vec({1: 0, 3: 0}, 2))),
    ))


def test_exact_report_names_every_failure_kind_in_order():
    x = every_failure_kind_set()
    report = verify_mubs(x)
    assert report.violations == (
        # groups [u0, u2] and [u1] meet in one point: the pair (u2, u1)
        # comes from the first group but is named lower index first
        ("orthogonality", 0, 0, 0, 1, "S(u, v) != 0"),
        ("orthogonality", 0, 1, 0, 2, "S(u, v) != 0"),
        # u1 meets both DFT rows in two points, and |S|^2 = 4 or 0
        ("unbiasedness", 0, 1, 1, 0, "|S|^2 != 2"),
        ("unbiasedness", 0, 1, 1, 1, "|S|^2 != 2"),
        ("norm", 0, 3, 0, 3, "|u|^2 = 1/2"),
        # u3 meets the DFT rows in one point, and nu*nv = 8 is not d
        ("unbiasedness", 0, 3, 1, 0, "|S|^2 != 2"),
        ("unbiasedness", 0, 3, 1, 1, "|S|^2 != 2"),
        # u3 misses (1, 0, 1, 0) altogether; it meets (0, 1, 0, 1) once, at
        # nu*nv = 4 = d, and passes
        ("unbiasedness", 0, 3, 1, 2, "|S|^2 = 0, want 1"),
    )
    assert verify_mubs(x, jobs=2) == report
    assert verify_mubs(x, mode="float").failing_pairs() == report.failing_pairs()


# -- the float oracle at its tolerance edges

# How far a constructed deviation sits from the edge it tests, relative to
# TOL; float rounding moves these deviations by about 1e-7 TOL.
EDGE = 1e-5


def qubit_mubs() -> MubSet:
    """The three mutually unbiased bases of C^2: the standard basis, then
    (1, 1), (1, -1) and (1, i), (1, -i), each of norm 2."""
    def vec(norm, positions, exponents):
        return MubVector(dim=2, root_order=4, norm_sq=norm, positions=positions,
                         exponents=exponents)

    return MubSet(dim=2, bases=(
        MubBasis((vec(1, (0,), (0,)), vec(1, (1,), (0,)))),
        MubBasis((vec(2, (0, 1), (0, 0)), vec(2, (0, 1), (0, 2)))),
        MubBasis((vec(2, (0, 1), (0, 1)), vec(2, (0, 1), (0, 3)))),
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
    def vec(norm, positions, exponents):
        return MubVector(dim=4, root_order=2, norm_sq=norm, positions=positions,
                         exponents=exponents)

    mixed = MubBasis((vec(1, (0,), (0,)), vec(1, (1,), (0,)),
                      vec(2, (2, 3), (0, 0)), vec(2, (2, 3), (0, 1))))
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
    v = MubVector(dim=2, root_order=1, norm_sq=1, positions=(0,), exponents=(0,))
    with pytest.raises(ValueError, match="bound"):
        MubSet(dim=1, bases=tuple(
            MubBasis((MubVector(dim=1, root_order=1, norm_sq=1, positions=(0,), exponents=(0,)),))
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
    supports = [v.positions[0] for v in t.bases[0].vectors]
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
                out_vecs.append({"norm_sq": vec.norm_sq, "amps": [
                    [pos, e * f % m] for pos, e in zip(vec.positions, vec.exponents)]})
            else:
                out_vecs.append({"norm_sq": vec.norm_sq, "amps_float": [
                    [pos, a.real, a.imag] for pos, a in zip(vec.positions, vec.amplitudes)]})
        bases.append(out_vecs)
    return {"dim": x.dim, "root_order": m, "bases": bases}


def mixed_root_orders() -> MubSet:
    """Root orders 1, 2 and 3 in one set of C^4, so export lifts to 6."""
    third = MubBasis(tuple(
        MubVector(dim=4, root_order=3, norm_sq=2, positions=(p, p ^ 1), exponents=(p % 3, 2))
        if p % 2 == 0 else
        MubVector(dim=4, root_order=3, norm_sq=2, positions=(p ^ 1, p), exponents=(1, 0))
        for p in range(4)))
    return MubSet(dim=4, bases=(standard_basis(4).bases[0], built_mubs(2).bases[1], third))


def odd_floats() -> MubSet:
    """Float amplitudes whose encodings need repr, NaN and Infinity."""
    vecs = (MubVector(dim=2, root_order=1, norm_sq=1, positions=(0,),
                      amplitudes=(complex(0.1, -1 / 3),)),
            MubVector(dim=2, root_order=1, norm_sq=2, positions=(0, 1),
                      amplitudes=(complex(float("nan"), float("inf")),
                                  complex(-float("inf"), 1e300))))
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
    sets.append(built_mubs(16))  # positions of up to three digits
    sets.append(standard_basis(1500))  # one amplitude per vector, four-digit positions
    # groups that interleave within a basis, and unequal norms in one
    sets.append(shuffled(built_mubs(4), 3))
    sets.append(support_runs())
    # both factors lifted, from root orders 3 and 2 to 6
    sets.append(tensor_mubs(quadratic_phase(3), built_mubs(2)))
    # root order 131: rows in 16-bit fields
    sets.append(quadratic_phase(131, twists=2))
    for n, x in enumerate(sets):
        want = serial.dumps(old_to_dict(x))
        assert mubs_to_json(x) == want
        path = tmp_path / f"{n}.json"
        export_mubs(x, path)
        assert path.read_bytes() == want.encode("utf-8")
    assert mubs_to_dict(mixed_root_orders()) == old_to_dict(mixed_root_orders())
    assert mubs_to_dict(mixed_root_orders())["root_order"] == 6


def test_json_writer_refuses_a_root_order_no_reader_accepts():
    # root orders 4093 and 4091 lift to 16,744,463 > MAX_ROOT_ORDER, which
    # mubs_from_dict refuses, so the writer refuses it too
    x = MubSet(dim=2, bases=(MubBasis(tuple(
        MubVector(dim=2, root_order=m, norm_sq=2, positions=(0, 1), exponents=(0, 1))
        for m in (4093, 4091))),))
    with pytest.raises(ValueError, match="TooLarge: root order 16744463"):
        mubs_to_json(x)


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
            mubs_from_dict(json.loads(serial.dumps(doc(n, part))))
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


def loaded(doc):
    """mubs_from_dict(doc), or the message of its ParseError."""
    try:
        return mubs_from_dict(doc)
    except ParseError as exc:
        return str(exc)


def walked(doc):
    """loaded(doc) with the basis check of mubs_from_dict refusing every
    basis, so each vector takes the walk."""
    check = mub._exact_basis
    mub._exact_basis = lambda *_: None
    try:
        return loaded(doc)
    finally:
        mub._exact_basis = check


@pytest.mark.parametrize("where, value, message", [
    (("amps", 1, 0), 1, ": positions must be strictly increasing"),
    (("amps", 1, 0), 0, ": positions must be strictly increasing"),
    (("amps", 1, 1), 2, ": exponent 2 out of range for root order 2"),
    (("amps", 0, 1), -1, ": exponent -1 out of range for root order 2"),
    (("amps", 1, 0), 4, ": position 4 out of range for dim 4"),
    (("amps", 0, 0), -1, ": position -1 out of range for dim 4"),
    (("amps", 1, 1), True, ': "amps" must be a list of [position, exponent] pairs'),
    (("amps", 1, 0), 3.0, ': "amps" must be a list of [position, exponent] pairs'),
    (("amps", 1), [3, 0, 0], ': "amps" must be a list of [position, exponent] pairs'),
    (("norm_sq",), 0, ': "norm_sq" must be an integer from 1 to 2**32'),
    (("norm_sq",), MAX_MAGNITUDE + 1, ': "norm_sq" must be an integer from 1 to 2**32'),
    (("x",), 0, ' needs "norm_sq" and exactly one of "amps", "amps_float"'),
])
def test_checked_bases_refuse_what_the_walk_refuses(where, value, message):
    # built_mubs(2): d = 4, m = 2, and vector 2 of basis 1 holds [[1, 0], [3, 0]]
    doc = mubs_to_dict(built_mubs(2))
    holder = doc["bases"][1][2]
    for key in where[:-1]:
        holder = holder[key]
    holder[where[-1]] = value
    assert loaded(doc) == walked(doc) == "basis 1 vector 2" + message


def test_the_complete_s_32_set_round_trips_sharing_its_pairs(tmp_path):
    # the s = 32 set: 33 bases of 1024 vectors, on 33 * 32 supports
    x = built_mubs(32)
    path = tmp_path / "s32.json"
    export_mubs(x, path)
    y = mubs_from_dict(serial.read_json(path))
    assert y == x
    assert mubs_to_json(y) == path.read_text()
    # the vectors on one support share one positions tuple, across bases
    # too: here the first basis of mixed_root_orders comes again as a fourth
    doc = mubs_to_dict(mixed_root_orders())
    doc["bases"].append(doc["bases"][0])
    z = mubs_from_dict(doc)
    for loaded, supports in [(y, 33 * 32), (z, 4 + 2 + 2)]:
        positions = [v.positions for basis in loaded.bases for v in basis.vectors]
        assert len(set(map(id, positions))) == len(set(positions)) == supports


@pytest.mark.parametrize("enabled", [True, False])
def test_loaders_leave_the_collector_as_the_caller_set_it(enabled, tmp_path, monkeypatch):
    good = tmp_path / "good.json"
    export_mubs(built_mubs(2), good)
    monkeypatch.setattr(serial, "MAX_DOCUMENT_BYTES", good.stat().st_size)
    faults = {"missing.json": (None, "cannot read"),
              "large.json": (good.read_bytes() + b" ", "holds more than"),
              "latin1.json": (b'"\xe9"', "invalid JSON"), "broken.json": (b"[0, 1", "invalid JSON")}
    seen = []
    monkeypatch.setattr(serial, "json", types.SimpleNamespace(
        loads=lambda text: seen.append(gc.isenabled()) or json.loads(text)))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        doc = serial.read_json(good)
        assert seen == [False] and gc.isenabled() is enabled  # parsed with the collector paused
        assert mubs_from_dict(doc) == built_mubs(2) and gc.isenabled() is enabled
        with pytest.raises(ParseError):
            mubs_from_dict({**doc, "dim": 0})
        assert gc.isenabled() is enabled
        for name, (data, message) in faults.items():
            if data is not None:
                (tmp_path / name).write_bytes(data)
            with pytest.raises(ParseError, match=message):
                serial.read_json(tmp_path / name)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# -- support groups of the exact tables

def first_appearance_groups(x: MubSet) -> list:
    """Per basis, (positions, norm_sq, indices) for each (support,
    norm_sq) in order of first appearance: the grouping of _exact_tables."""
    out = []
    for basis in x.bases:
        index: dict = {}
        for j, v in enumerate(basis.vectors):
            index.setdefault((v.positions, v.norm_sq), []).append(j)
        out.append([(positions, norm, us) for (positions, norm), us in index.items()])
    return out


def table_groups(x: MubSet) -> list:
    m, tables = mub._exact_tables(x)
    pack = mub._row_codec(m).pack
    for basis, groups in zip(x.bases, tables):
        for mask, _, positions, us, rows in groups:
            assert mask == sum(1 << p for p in positions)
            assert rows == tuple(pack(e * (m // basis.vectors[j].root_order)
                                      for e in basis.vectors[j].exponents) for j in us)
    return [[(positions, norm, list(us)) for _, norm, positions, us, _ in groups]
            for groups in tables]


def support_runs() -> MubSet:
    """Supports A A B A A' B on C^6, A' being A's support with another
    norm: groups that interleave, and two norms in one basis."""
    a, b = (0, 1, 2), (3, 4, 5)

    def v(support, norm, e):
        return MubVector(dim=6, root_order=3, norm_sq=norm, positions=support,
                         exponents=[e] * len(support))

    return MubSet(dim=6, bases=(MubBasis((v(a, 3, 0), v(a, 3, 1), v(b, 3, 0), v(a, 3, 2),
                                          v(a, 2, 0), v(b, 3, 1))),))


def test_support_runs_that_meet_again_join_their_first_group():
    a, b = (0, 1, 2), (3, 4, 5)
    x = support_runs()
    groups = table_groups(x)
    assert groups == first_appearance_groups(x) == [
        [(a, 3, [0, 1, 3]), (b, 3, [2, 5]), (a, 2, [4])]]


# -- randomized cross-checks

def lifted(x: MubSet, m: int) -> MubSet:
    """x with every exponent scaled to root order m."""
    return MubSet(dim=x.dim, bases=tuple(MubBasis(tuple(
        MubVector(dim=v.dim, root_order=m, norm_sq=v.norm_sq, positions=v.positions,
                  exponents=[e * (m // v.root_order) for e in v.exponents])
        for v in basis.vectors)) for basis in x.bases))


@pytest.mark.parametrize("m, code, q", [
    (127, "B", None), (128, "B", 4), (129, "H", 3), (MAX_ROOT_ORDER, "H", 2)])
def test_oracles_agree_at_the_key_field_widths(m, code, q):
    # keys hold e_u - e_v + m, from 1 to 2m - 1, in one field per
    # position: bytes up to m = 128, 16-bit items above; exponents 0 and
    # m - 1 reach both ends of a field
    assert mub._row_codec(m).size == {"B": 1, "H": 2}[code]
    rng = random.Random(m)
    net = built_mubs(3)
    spread = MubSet(dim=9, bases=tuple(MubBasis(tuple(
        MubVector(dim=9, root_order=m, norm_sq=3, positions=v.positions,
                  exponents=[rng.choice((0, 1, m // 2, m - 1)) for _ in v.positions])
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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([128, 200, 260]), st.data())
def test_rows_packed_whole_keep_exact_verdicts_at_both_field_widths(m, data):
    # three bases of C^4: Fourier vectors on all four points, pairs of
    # vectors on {0, 1} and {2, 3}, and Fourier vectors with a quadratic
    # phase; a group pair then shares either one side's whole support or
    # both sides', and every exponent may be shifted
    q = m // 4
    fourier = [tuple((p, q * k * p % m) for p in range(4)) for k in range(4)]
    halves = [((a, 0), (a + 1, h)) for a in (0, 2) for h in (0, m // 2)]
    twisted = [tuple((p, (q * k * p + q * p * p) % m) for p in range(4)) for k in range(4)]
    bases = []
    for amps_list in (fourier, halves, twisted):
        vecs = []
        for amps in amps_list:
            shift = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, m // 2, m - 1]),
                                       min_size=len(amps), max_size=len(amps)))
            vecs.append(MubVector(dim=4, root_order=m, norm_sq=len(amps),
                                  positions=[p for p, _ in amps],
                                  exponents=[(e + t) % m for (_, e), t in zip(amps, shift)]))
        bases.append(MubBasis(tuple(vecs)))
    x = MubSet(dim=4, bases=tuple(bases))
    # the ids of the groups whose whole-support classes are built, once
    # per cache miss; a group's id stays unique while one call runs
    built = []
    phase_classes = mub._phase_classes

    def spying(m, cache, group, common):
        if common == group[0] and id(group) not in cache:
            built.append(id(group))
        return phase_classes(m, cache, group, common)

    mub._phase_classes = spying
    try:
        exact = verify_mubs(x, mode="exact").failing_pairs()
    finally:
        mub._phase_classes = phase_classes
    assert exact == exact_failing_pairs(x) == verify_mubs(x, mode="float").failing_pairs()
    assert built and len(built) == len(set(built))


@pytest.mark.parametrize("m", [128, 260])
def test_rows_on_their_whole_support_are_not_packed_again(m):
    # the bases of the test above, unshifted: the Fourier and twisted
    # groups on all four points meet each half group on its whole support,
    # so only their 4-point rows are packed again, on {0, 1} or {2, 3},
    # once per such group pair; the half groups' rows and every row of a
    # group paired with itself or with a whole-support group are the
    # packed rows themselves
    q = m // 4
    fourier = [tuple((p, q * k * p % m) for p in range(4)) for k in range(4)]
    halves = [((a, 0), (a + 1, h)) for a in (0, 2) for h in (0, m // 2)]
    twisted = [tuple((p, (q * k * p + q * p * p) % m) for p in range(4)) for k in range(4)]
    x = MubSet(dim=4, bases=tuple(
        MubBasis(tuple(MubVector(4, m, len(amps), *zip(*amps)) for amps in amps_list))
        for amps_list in (fourier, halves, twisted)))
    restricted = []
    phase_classes = mub._phase_classes

    def spying(m, cache, group, common):
        if common != group[0]:
            restricted.append(common.bit_count())
        return phase_classes(m, cache, group, common)

    mub._phase_classes = spying
    try:
        exact = verify_mubs(x, mode="exact").failing_pairs()
    finally:
        mub._phase_classes = phase_classes
    assert exact == exact_failing_pairs(x) == verify_mubs(x, mode="float").failing_pairs()
    assert restricted == [2, 2, 2, 2]


MUB_KEYS = ["dim", "root_order", "bases", "norm_sq", "amps", "amps_float", "x"]


@settings(max_examples=400, deadline=None)
@given(mutated_documents([lambda: mubs_to_dict(built_mubs(2)),
                          lambda: mubs_to_dict(standard_basis(3)),
                          lambda: mubs_to_dict(as_float_set(built_mubs(2)))], MUB_KEYS))
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
            vecs.append(MubVector(dim=d, root_order=m, norm_sq=norm, positions=support,
                                  exponents=exps))
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


@settings(max_examples=300, deadline=None)
@given(mutated_documents([lambda: mubs_to_dict(built_mubs(2)),
                          lambda: mubs_to_dict(built_mubs(3)),
                          lambda: mubs_to_dict(standard_basis(3)),
                          lambda: mubs_to_dict(mixed_root_orders()),
                          lambda: mubs_to_dict(as_float_set(built_mubs(2)))], MUB_KEYS))
def test_checked_bases_load_as_the_walk_loads_them(doc):
    fast, slow = loaded(doc), walked(doc)
    assert type(fast) is type(slow) and fast == slow


@settings(max_examples=100, deadline=None)
@given(small_sets())
def test_support_groups_follow_first_appearance(x):
    assert table_groups(x) == first_appearance_groups(x)


@settings(max_examples=100, deadline=None)
@given(small_sets())
def test_json_writer_matches_the_reference_on_sets_without_structure(x):
    # supports met again after other runs, unequal norms and empty supports
    assert mubs_to_json(x) == serial.dumps(old_to_dict(x))


def test_a_set_builds_its_exact_tables_once(monkeypatch):
    # two equal sets, built before the count starts (a build verifies its
    # DFT as one basis)
    x, fresh = (build_mubs(net_from_mols(complete_mols_prime_power(3)), dft(3)) for _ in "ab")
    calls = []
    build = mub._exact_tables
    monkeypatch.setattr(mub, "_exact_tables", lambda x: calls.append(x) or build(x))
    assert verify_mubs(x).ok
    assert mubs_to_json(x) == mubs_to_json(fresh)
    assert len(calls) == 2 and calls[0] is x and calls[1] is fresh
    # the cache lives in the instance dict, apart from the tuple that ==,
    # hash and repr read
    assert "_tables" in vars(x) and "_tables" in vars(fresh)
    assert x == fresh and hash(x) == hash(fresh) and repr(x) == repr(fresh)
    assert x == built_mubs(3) and repr(x) == repr(MubSet(x.dim, x.bases))


def test_a_verified_set_pickles_its_fields_alone():
    # the caches verification fills sit in the instance dict; a pickle
    # holds dim and bases only, and the copy builds its own
    x = build_mubs(net_from_mols(complete_mols_prime_power(5)), dft(5))
    before = pickle.dumps(x)
    assert verify_mubs(x).ok and x.is_exact and x.root_order == 5
    assert {"_tables", "is_exact", "root_order"} <= vars(x).keys()
    after = pickle.dumps(x)
    assert len(after) == len(before)
    back = pickle.loads(after)
    assert back == x and type(back) is MubSet and vars(back) == {}
    assert verify_mubs(back) == verify_mubs(x)
