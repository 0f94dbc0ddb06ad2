"""Acceptance gate: one test per shipped guarantee.

Each test pins an externally visible promise of the package, including the
runtime budget where one is part of the promise.  Running this file with
pytest -v prints one pass/fail line per guarantee.
"""

from __future__ import annotations

import cmath
import time

from hypothesis import given, settings, strategies as st

from mubkit.hadamard import char_table, dft, verify_hadamard
from mubkit.latin import MolsSet, cyclic_square
from mubkit.mub import MubSet, MubVector, embed, standard_basis, tensor_mubs, verify_mubs
from mubkit.net import IncidenceVector, net_from_mols
from mubkit.planner import ImportsTable, plan, prime_power_reduction_count

from conftest import DATA_DIR, built_mubs
from reference import float_deviation
from test_cli import BUILD_SQUARE_2, run
from test_hadamard import small_orders
from test_mub import non_integer_target_set, tampered
from test_net import REFERENCE_32_BLOCKS

SQUARE_SIDES = (2, 3, 4, 5, 7, 8, 9)


def test_criterion_1_cli_build_square_2_is_byte_exact_under_1s(capsys):
    t0 = time.monotonic()
    rc, out, err = run(capsys, "mub", "build", "--square", "2")
    elapsed = time.monotonic() - t0
    assert rc == 0
    assert out == BUILD_SQUARE_2
    assert err == ""
    assert elapsed < 1.0


def test_criterion_2_net_of_cyclic_order_2_square_matches_reference_table():
    t0 = time.monotonic()
    net = net_from_mols(MolsSet(2, (cyclic_square(2),)))
    got = tuple(tuple(v.to_bits01() for v in block) for block in net.blocks)
    assert got == REFERENCE_32_BLOCKS
    assert time.monotonic() - t0 < 1.0


def test_criterion_3_prime_power_squares_give_q_plus_1_exactly_verified_bases():
    t0 = time.monotonic()
    for q in SQUARE_SIDES:
        x = built_mubs(q)
        assert x.dim == q * q
        assert x.k == q + 1
        assert verify_mubs(x, mode="exact").ok
    assert time.monotonic() - t0 < 60.0


def test_criterion_4_embedding_places_cube_roots_at_the_mask_support():
    mask = IncidenceVector.from_bits01("101000001")
    vec = embed((0, 1, 2), 3, mask)
    assert vec == MubVector(dim=9, root_order=3, norm_sq=3, positions=(0, 2, 8),
                            exponents=(0, 1, 2))
    w = cmath.exp(2j * cmath.pi / 3)
    got = vec.float_map()
    assert all(abs(got[p] - w ** e) < 1e-12 for p, e in zip(vec.positions, vec.exponents))


def test_criterion_5_tensor_combiner_keeps_the_smaller_count_in_dim_36():
    t0 = time.monotonic()
    a, b = built_mubs(2), built_mubs(3)
    assert (a.dim, a.k) == (4, 3)
    assert (b.dim, b.k) == (9, 4)
    t = tensor_mubs(a, b)
    assert t.dim == 36
    assert t.k == min(a.k, b.k) == 3
    assert verify_mubs(t, mode="exact").ok
    assert time.monotonic() - t0 < 30.0


def test_criterion_6_planner_counts_match_the_reference_integers():
    imports = ImportsTable.from_dir(DATA_DIR)
    assert plan(4732, imports).best_count == 6
    assert prime_power_reduction_count(4732) == 5

    p4 = plan(4)
    assert p4.best_count == 5
    assert p4.best_constructible_count == 3

    p6084 = plan(78 * 78)
    assert p6084.best_count == 8
    assert "cited-existence" in p6084.best.describe()
    assert prime_power_reduction_count(78 * 78) == 5


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_criterion_7_single_exponent_flips_fail_both_oracles_identically(data):
    x = built_mubs(3)
    b = data.draw(st.integers(0, x.k - 1))
    i = data.draw(st.integers(0, len(x.bases[b].vectors) - 1))
    slot = data.draw(st.integers(0, len(x.bases[b].vectors[i].exponents) - 1))
    delta = data.draw(st.integers(1, x.root_order - 1))
    bad = tampered(x, b, i, slot, delta)
    exact = verify_mubs(bad, mode="exact")
    approx = verify_mubs(bad, mode="float")
    assert not exact.ok
    assert not approx.ok
    assert exact.failing_pairs() == approx.failing_pairs()


def test_criterion_8_fourier_matrices_verify_exactly_through_size_12():
    for s in range(1, 13):
        h = dft(s)
        assert verify_hadamard(h).ok
        assert float_deviation(h) < 1e-9


@settings(max_examples=200, deadline=None)
@given(small_orders)
def test_criterion_8_random_character_tables_verify_exactly(orders):
    h = char_table(orders)
    assert verify_hadamard(h).ok
    assert float_deviation(h) < 1e-9


def test_criterion_9_exact_and_float_verdicts_agree_on_every_artifact():
    sets = [built_mubs(q) for q in SQUARE_SIDES]
    sets.append(tensor_mubs(built_mubs(2), built_mubs(3)))
    sets.append(tampered(built_mubs(3), 0, 0, 0, 1))
    sets.append(MubSet(dim=4, bases=standard_basis(4).bases * 2))
    sets.append(non_integer_target_set())
    for x in sets:
        exact = verify_mubs(x, mode="exact")
        approx = verify_mubs(x, mode="float")
        assert exact.ok == approx.ok
        assert exact.failing_pairs() == approx.failing_pairs()
    tables = [dft(s) for s in range(1, 13)]
    tables.append(char_table([2, 2]))
    tables.append(char_table([2, 3, 4]))
    for h in tables:
        assert verify_hadamard(h).ok == (float_deviation(h) < 1e-9)
