"""Exact arithmetic in Z[w] for w a root of unity, and its float shadow."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from mubkit.cyclotomic import (
    Cyclotomic,
    IntPolynomial,
    TOL,
    counts_to_cyclotomic,
    cyclo_poly,
    divisors,
    root,
)

from reference import approx

orders = st.integers(min_value=1, max_value=24)


def element(order: int, coeffs: list[int]) -> Cyclotomic:
    out = Cyclotomic.zero(order)
    for e, c in enumerate(coeffs):
        out = out + c * root(order, e % order)
    return out


elements = orders.flatmap(
    lambda m: st.lists(st.integers(min_value=-5, max_value=5),
                       min_size=1, max_size=m).map(lambda cs: element(m, cs)))


# -- polynomial scaffolding

def test_divisors_are_sorted_and_complete():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(13) == [1, 13]


def test_cyclotomic_polynomials_small_orders():
    assert cyclo_poly(1) == IntPolynomial.of(-1, 1)
    assert cyclo_poly(2) == IntPolynomial.of(1, 1)
    assert cyclo_poly(3) == IntPolynomial.of(1, 1, 1)
    assert cyclo_poly(4) == IntPolynomial.of(1, 0, 1)
    assert cyclo_poly(6) == IntPolynomial.of(1, -1, 1)
    assert cyclo_poly(12) == IntPolynomial.of(1, 0, -1, 0, 1)


def test_cyclo_polys_multiply_to_x_pow_m_minus_1():
    # prod over d | m of Phi_d = x^m - 1
    for m in range(1, 25):
        prod = IntPolynomial.of(1)
        for d in divisors(m):
            prod = prod * cyclo_poly(d)
        want = IntPolynomial.of(*([-1] + [0] * (m - 1) + [1]))
        assert prod == want


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=8),
       st.lists(st.integers(-9, 9), min_size=1, max_size=6))
def test_polynomial_divmod_reconstructs(a_coeffs, b_coeffs):
    a = IntPolynomial.of(*a_coeffs)
    b = IntPolynomial.of(*(b_coeffs + [1]))  # monic divisor
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


# -- ring structure

def test_primitive_root_sums_vanish():
    for m in (2, 3, 5, 7, 11):
        total = Cyclotomic.zero(m)
        for e in range(m):
            total = total + root(m, e)
        assert total.is_zero()
    assert not (root(4, 0) + root(4, 1)).is_zero()


def test_fourth_root_squares_to_minus_one():
    i = root(4, 1)
    assert i * i == Cyclotomic.from_int(-1)
    assert i * i * i * i == Cyclotomic.from_int(1)


def test_equality_across_orders():
    # the same value expressed against different root orders compares equal
    assert root(2, 1) == root(6, 3)
    assert Cyclotomic.from_int(1) == root(5, 0)
    assert root(6, 2) + root(6, 4) == Cyclotomic.from_int(-1)


def test_lifted_preserves_value():
    x = root(3, 1) + 2 * root(3, 2)
    y = x.lifted(12)
    assert y.order == 12
    assert x == y
    assert abs(approx(x) - approx(y)) < TOL
    with pytest.raises(ValueError):
        x.lifted(7)  # not a multiple of 3


@given(elements, elements)
def test_addition_commutes(x, y):
    assert x + y == y + x


@given(elements, elements, elements)
def test_multiplication_associates_and_distributes(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(elements)
def test_additive_inverse(x):
    assert (x - x).is_zero()
    assert (x + (-x)).is_zero()


@given(elements, st.integers(-7, 7))
def test_integer_scaling_matches_repeated_addition(x, n):
    total = Cyclotomic.zero(x.order)
    for _ in range(abs(n)):
        total = total + x
    if n < 0:
        total = -total
    assert n * x == total


# -- conjugation

@given(elements)
def test_conjugation_is_an_involution(x):
    assert x.conj().conj() == x


@given(elements, elements)
def test_conjugation_is_a_ring_homomorphism(x, y):
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()


@given(elements)
def test_conjugate_tracks_complex_conjugate(x):
    assert abs(approx(x.conj()) - approx(x).conjugate()) < TOL


@given(elements)
def test_norm_is_real_and_nonnegative(x):
    n = approx(x * x.conj())
    assert abs(n.imag) < TOL
    assert n.real > -TOL


# -- the zero test against the float shadow

@given(elements)
def test_is_zero_agrees_with_float_magnitude(x):
    assert x.is_zero() == (abs(approx(x)) < TOL)


@given(elements, elements)
def test_approx_is_additive_and_multiplicative(x, y):
    assert abs(approx(x + y) - (approx(x) + approx(y))) < 1e-7
    assert abs(approx(x * y) - approx(x) * approx(y)) < 1e-6


def test_counts_to_cyclotomic_matches_explicit_sum():
    x = counts_to_cyclotomic(6, {0: 2, 3: 1, 5: -1})
    y = 2 * root(6, 0) + root(6, 3) - root(6, 5)
    assert x == y
    assert counts_to_cyclotomic(6, {}).is_zero()


def test_known_vanishing_sums_of_nonprime_order():
    # 1 + w^2 + w^4 = 0 for w of order 6 (the cube roots inside)
    assert counts_to_cyclotomic(6, {0: 1, 2: 1, 4: 1}).is_zero()
    # 1 + w^3 = 0 for w of order 6
    assert counts_to_cyclotomic(6, {0: 1, 3: 1}).is_zero()
    # but 1 + w is not zero
    assert not counts_to_cyclotomic(6, {0: 1, 1: 1}).is_zero()


def test_root_validates_inputs():
    with pytest.raises(ValueError):
        root(0, 0)
    assert root(5, 7) == root(5, 2)  # exponents reduce mod the order


@given(orders)
def test_unit_roots_have_unit_modulus(m):
    for e in range(m):
        assert abs(abs(approx(root(m, e))) - 1.0) < TOL
        assert abs(approx(root(m, e)) -
                   complex(math.cos(2 * math.pi * e / m),
                           math.sin(2 * math.pi * e / m))) < TOL
