"""Generalized Hadamard matrices: DFTs, tensor products, character tables."""

from __future__ import annotations

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from mubkit.hadamard import (
    GenHadamard,
    MAX_TABLE_SIZE,
    char_table,
    dft,
    float_deviation,
    float_ok,
    tensor_hadamard,
    verify_hadamard,
)

TOL = 1e-9

# group orders whose product stays <= 24, for character-table properties
small_orders = st.lists(st.integers(1, 24), min_size=1, max_size=4).filter(
    lambda xs: math.prod(xs) <= 24)


def test_dft_exponent_table_is_the_multiplication_table():
    h = dft(4)
    assert h.root_order == 4
    assert h.exponents == (
        (0, 0, 0, 0),
        (0, 1, 2, 3),
        (0, 2, 0, 2),
        (0, 3, 2, 1),
    )
    assert dft(2).exponents == ((0, 0), (0, 1))
    assert dft(1).exponents == ((0,),)


def test_dft_entries_are_unit_roots():
    h = dft(5)
    for r in range(5):
        for c in range(5):
            want = cmath.exp(2j * cmath.pi * r * c / 5)
            assert abs(h.entry(r, c) - want) < TOL


@pytest.mark.parametrize("s", range(1, 13))
def test_dft_is_hadamard_exactly_and_in_float(s):
    h = dft(s)
    assert verify_hadamard(h).ok
    assert float_deviation(h) < TOL
    assert float_ok(h)


def test_exponent_table_validation():
    with pytest.raises(ValueError):
        GenHadamard(4, ((0, 0), (0,)))  # ragged
    with pytest.raises(ValueError):
        GenHadamard(2, ((0, 0), (0, 2)))  # exponent out of range
    with pytest.raises(ValueError):
        GenHadamard(0, ((0,),))


def test_tampering_breaks_orthogonality():
    h = dft(4)
    rows = [list(r) for r in h.exponents]
    rows[2][3] = (rows[2][3] + 1) % 4
    bad = GenHadamard(4, tuple(tuple(r) for r in rows))
    report = verify_hadamard(bad)
    assert not report.ok
    # every violated pair involves the tampered row
    assert all(2 in pair for pair in report.violations)
    assert float_deviation(bad) > 1e-3
    assert not float_ok(bad)


def test_tensor_combines_sizes_and_root_orders():
    t = tensor_hadamard(dft(2), dft(3))
    assert t.size == 6
    assert t.root_order == 6
    # entry ((r1 r2), (c1 c2)) is the product of the factor entries
    for r1 in range(2):
        for r2 in range(3):
            for c1 in range(2):
                for c2 in range(3):
                    want = dft(2).entry(r1, c1) * dft(3).entry(r2, c2)
                    got = t.entry(r1 * 3 + r2, c1 * 3 + c2)
                    assert abs(got - want) < TOL
    assert verify_hadamard(t).ok


def test_tensor_with_the_trivial_matrix_is_identity():
    h = dft(5)
    t = tensor_hadamard(dft(1), h)
    assert t.size == 5
    assert verify_hadamard(t).ok
    for r in range(5):
        for c in range(5):
            assert abs(t.entry(r, c) - h.entry(r, c)) < TOL


def test_char_table_of_cyclic_group_is_the_dft():
    assert char_table([6]) == dft(6)
    assert char_table([4]) == dft(4)


def test_char_table_of_product_groups():
    t = char_table([2, 2])
    assert t.size == 4
    assert t.root_order == 2
    assert verify_hadamard(t).ok
    # the Klein table is real: all entries +-1
    for r in range(4):
        for c in range(4):
            assert abs(abs(t.entry(r, c).real) - 1) < TOL
            assert abs(t.entry(r, c).imag) < TOL


def test_char_table_input_validation():
    with pytest.raises(ValueError, match="EmptyInput"):
        char_table([])
    with pytest.raises(ValueError, match="TooLarge"):
        char_table([2] * 13)  # 8192 > MAX_TABLE_SIZE
    assert MAX_TABLE_SIZE == 4096
    with pytest.raises(ValueError):
        char_table([0, 3])


@settings(max_examples=60, deadline=None)
@given(small_orders)
def test_char_tables_verify_exactly_and_in_float(orders):
    h = char_table(orders)
    assert h.size == math.prod(orders)
    assert verify_hadamard(h).ok
    assert float_deviation(h) < TOL


@settings(max_examples=25, deadline=None)
@given(small_orders, st.data())
def test_scaling_a_single_entry_never_stays_hadamard(orders, data):
    h = char_table(orders)
    if h.size < 2 or h.root_order < 2:
        return
    r = data.draw(st.integers(0, h.size - 1))
    c = data.draw(st.integers(0, h.size - 1))
    delta = data.draw(st.integers(1, h.root_order - 1))
    rows = [list(row) for row in h.exponents]
    rows[r][c] = (rows[r][c] + delta) % h.root_order
    bad = GenHadamard(h.root_order, tuple(tuple(row) for row in rows))
    report = verify_hadamard(bad)
    assert not report.ok
    assert (float_deviation(bad) < TOL) == report.ok
