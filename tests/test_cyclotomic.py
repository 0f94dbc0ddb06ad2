"""The two exact ring tests, vanishes and unbiased, against the complex sum
of the roots of unity they stand for and against the reference's long
division modulo Phi_m, and the identities the verifiers rely on."""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from mubkit.cyclotomic import MAX_ROOT_ORDER, TOL, unbiased, vanishes

import reference
from reference import approx, divisors, phi

orders = st.integers(min_value=1, max_value=64)


@st.composite
def order_and_exponents(draw, orders=orders, max_extra=8):
    """(m, exponents): a union of cosets of subgroups of prime order, whose
    sum is 0, with up to max_extra further exponents, which usually make
    it nonzero; exponents may lie outside 0..m-1."""
    m = draw(orders)
    primes = [p for p in divisors(m)[1:] if all(p % q for q in range(2, p))]
    out = []
    for _ in range(draw(st.integers(0, 3)) if primes else 0):
        p = draw(st.sampled_from(primes))
        start = draw(st.integers(0, m - 1))
        out.extend(start + j * (m // p) for j in range(p))
    out.extend(draw(st.lists(st.integers(-2 * m, 2 * m), max_size=max_extra)))
    return m, draw(st.permutations(out))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# -- Phi_m, built by the reference division

def test_divisors_are_sorted_and_complete():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(13) == [1, 13]


def test_cyclotomic_polynomials_small_orders():
    assert phi(1) == (-1, 1)
    assert phi(2) == (1, 1)
    assert phi(3) == (1, 1, 1)
    assert phi(4) == (1, 0, 1)
    assert phi(6) == (1, -1, 1)
    assert phi(12) == (1, 0, -1, 0, 1)
    assert phi(4096) == (1,) + (0,) * 2047 + (1,)


def test_cyclo_polys_multiply_to_x_pow_m_minus_1():
    # prod over d | m of Phi_d = x^m - 1
    for m in range(1, 25):
        prod = [1]
        for d in divisors(m):
            prod = poly_mul(prod, phi(d))
        assert prod == [-1] + [0] * (m - 1) + [1]


# -- the identities the verifiers rely on

def test_primitive_root_sums_vanish():
    for m in (2, 3, 5, 7, 11):
        assert vanishes(m, range(m))
    assert not vanishes(4, [0, 1])


def test_fourth_root_squares_to_minus_one():
    # i*i + 1 = 0 and i^4 - 1 = i^4 + i^2 = 0, as sums of fourth roots
    assert vanishes(4, [1 + 1, 0])
    assert vanishes(4, [4 * 1, 2])
    assert not vanishes(4, [2, 2])
    assert unbiased(4, [1], 1, 1)  # |i|^2 = 1


def test_equality_across_orders():
    # -1 is w_2 and w_6^3, so either plus 1 vanishes; w_6^2 + w_6^4 = -1
    assert vanishes(2, [1, 0]) and vanishes(6, [3, 0])
    assert vanishes(6, [2, 4, 0])
    assert not vanishes(6, [2, 4])


def test_known_vanishing_sums_of_nonprime_order():
    # 1 + w^2 + w^4 = 0 for w of order 6 (the cube roots inside)
    assert vanishes(6, [0, 2, 4])
    # 1 + w^3 = 0 for w of order 6
    assert vanishes(6, [0, 3])
    # but 1 + w is not zero, and a repeated exponent counts each time
    assert not vanishes(6, [0, 1])
    assert not vanishes(6, [0, 0, 3])
    assert vanishes(6, [0, 0, 3, 3])


@given(order_and_exponents(orders=st.integers(1, 24)), st.integers(1, 6),
       st.integers(1, 9), st.integers(0, 40))
def test_lifted_preserves_value(case, k, d, n):
    # an exponent e of order m is e*k at order m*k: the verifiers lift
    # mixed root orders this way before any test
    m, x = case
    lifted = [e * k for e in x]
    assert vanishes(m * k, lifted) == vanishes(m, x)
    assert unbiased(m * k, lifted, d, n) == unbiased(m, x, d, n)
    assert abs(approx(m * k, lifted) - approx(m, x)) < TOL


@given(order_and_exponents(), order_and_exponents())
def test_addition_commutes(a, b):
    # a test sees the multiset only, so the verifiers may key their
    # verdicts by the sorted differences
    m, x = a
    y = [e % m for e in b[1]]
    assert vanishes(m, x + y) == vanishes(m, y + x) == vanishes(m, sorted(e % m for e in x + y))
    assert unbiased(m, x + y, 2, 3) == unbiased(m, y + x, 2, 3)


@given(order_and_exponents(orders=st.integers(1, 32).map(lambda h: 2 * h)))
def test_additive_inverse(case):
    # -w^e = w^(e + m/2) for even m, so x and its negative sum to 0
    m, x = case
    assert vanishes(m, x + [e + m // 2 for e in x])


@given(order_and_exponents(), st.integers(1, 5), st.integers(1, 4), st.integers(0, 30))
def test_integer_scaling_matches_repeated_addition(case, k, d, n):
    # k copies of x sum to k*S: zero with S, and k^2 times its norm
    m, x = case
    assert vanishes(m, x * k) == vanishes(m, x)
    assert unbiased(m, x * k, d, k * k * n) == unbiased(m, x, d, n)


@given(order_and_exponents(), st.integers(1, 9), st.integers(0, 40))
def test_conjugate_tracks_complex_conjugate(case, d, n):
    # negated exponents sum to conj(S), which has the zeros and norm of S
    m, x = case
    neg = [-e for e in x]
    assert abs(approx(m, neg) - approx(m, x).conjugate()) < TOL
    assert vanishes(m, neg) == vanishes(m, x)
    assert unbiased(m, neg, d, n) == unbiased(m, x, d, n)


@given(order_and_exponents())
def test_is_zero_agrees_with_float_magnitude(case):
    m, x = case
    assert vanishes(m, x) == (abs(approx(m, x)) < TOL)


@given(order_and_exponents(), st.integers(1, 9), st.integers(-3, 3))
def test_norm_is_real_and_nonnegative(case, d, shift):
    # d*|S|^2 is matched by the integer nearest it, only when it is that
    # integer, and never by a negative one
    m, x = case
    norm = d * abs(approx(m, x)) ** 2
    n = round(norm) + shift
    assert unbiased(m, x, d, n) == (abs(norm - n) < TOL)
    assert not unbiased(m, x, d, -1 - abs(n))


@given(order_and_exponents(max_extra=5), order_and_exponents(max_extra=5))
def test_approx_is_additive_and_multiplicative(a, b):
    # a union of multisets adds the sums, the sumset multiplies them, and
    # unbiased's autocorrelation is the product S*conj(S)
    m, x = a
    y = [e % m for e in b[1]]
    assert vanishes(m, x + y) == (abs(approx(m, x) + approx(m, y)) < TOL)
    product = [e + f for e in x for f in y]
    assert vanishes(m, product) == (abs(approx(m, x) * approx(m, y)) < TOL)
    assert unbiased(m, x, 1, 0) == vanishes(m, x)


@settings(max_examples=5, deadline=None)
@given(st.sampled_from([3960, 4095, 4096]), st.data())
def test_large_orders_agree_with_the_float_sum(m, data):
    # a union of cosets sums to 0; moving one exponent adds w^f - w^e != 0
    x = data.draw(order_and_exponents(orders=st.just(m), max_extra=0).map(lambda c: c[1])
                  .filter(bool))
    i = data.draw(st.integers(0, len(x) - 1))
    moved = x[:i] + [x[i] + data.draw(st.integers(1, m - 1))] + x[i + 1:]
    assert vanishes(m, x) and abs(approx(m, x)) < TOL
    assert not vanishes(m, moved) and abs(approx(m, moved)) > TOL
    assert unbiased(m, x, 1, 0) and not unbiased(m, moved, 1, 0)


@given(orders)
def test_unit_roots_have_unit_modulus(m):
    for e in range(m):
        assert unbiased(m, [e], 1, 1)
        assert abs(approx(m, [e]) - complex(math.cos(2 * math.pi * e / m),
                                            math.sin(2 * math.pi * e / m))) < TOL


# -- the tower against the reference division

TOWER_ORDERS = st.sampled_from([1, 2, 4, 12, 210, 1155, 2310, 3465, 4095, 4096])


@st.composite
def random_multisets(draw):
    """(m, exponents, None): any multiset, whatever its sum."""
    m = draw(TOWER_ORDERS)
    return m, draw(st.lists(st.integers(-2 * m, 2 * m), max_size=40)), None


@st.composite
def rotated_subgroups(draw):
    """(m, exponents, "vanishes"): a union of subgroups of order t > 1 of
    the m-th roots, each turned by a root of its own; its sum is 0."""
    m = draw(TOWER_ORDERS.filter(lambda m: m > 1))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        t = draw(st.sampled_from([t for t in divisors(m)[1:] if t <= 64]))
        start = draw(st.integers(0, m - 1))
        out.extend(start + j * (m // t) for j in range(t))
    return m, draw(st.permutations(out)), "vanishes"


@st.composite
def gauss_sums(draw):
    """(m, exponents, s): a quadratic Gauss sum of s terms, |S|^2 = s.  For
    odd s | m the terms are w_s^(a*x^2 + b*x), a prime to s; for even s
    with 2s | m they are w_2s^(a*x^2 + 2*b*x), a prime to 2s; x < s."""
    m = draw(TOWER_ORDERS)
    s = draw(st.sampled_from([s for s in range(1, 65)
                              if (s % 2 and m % s == 0) or (s % 2 == 0 and m % (2 * s) == 0)]))
    w = s if s % 2 else 2 * s
    a = draw(st.sampled_from([a for a in range(w) if math.gcd(a, w) == 1]))
    b = draw(st.integers(0, s - 1)) * (1 if s % 2 else 2)
    return m, [m // w * (a * x * x + b * x) for x in range(s)], s


@settings(max_examples=50, deadline=None)
@given(st.one_of(random_multisets(), rotated_subgroups(), gauss_sums()), st.integers(1, 5),
       st.integers(0, 40))
def test_the_tower_agrees_with_the_division(case, d, n):
    # vanishing and unbiased sums at orders with repeated primes and with
    # many primes, each tested both ways
    m, x, kind = case
    if kind == "vanishes":
        assert vanishes(m, x)
    elif kind is not None:
        assert unbiased(m, x, d, d * kind)
    assert vanishes(m, x) == reference.vanishes(m, x)
    norm = round(d * abs(approx(m, x)) ** 2)
    for target in {n, norm, norm + 1}:
        assert unbiased(m, x, d, target) == reference.unbiased(m, x, d, target)


# -- inputs

def test_root_validates_inputs():
    for order in (0, -3):
        with pytest.raises(ValueError, match="order must be >= 1"):
            vanishes(order, [0])
        with pytest.raises(ValueError, match="order must be >= 1"):
            unbiased(order, [0], 1, 1)
    # exponents reduce mod the order
    assert vanishes(5, [7, 1, 3, 4, 10]) == vanishes(5, [2, 1, 3, 4, 0]) is True
    assert vanishes(5, [-1, -2, -3, -4, -5])


def test_orders_above_the_limit_are_refused_before_any_table():
    # without the bound, order 10^6 would build a million-entry list and
    # Phi of that order before answering
    start = time.perf_counter()
    for order in (MAX_ROOT_ORDER + 1, 10 ** 6):
        with pytest.raises(ValueError, match=f"TooLarge: root order {order} exceeds the limit"):
            vanishes(order, [0, 1])
        with pytest.raises(ValueError, match=f"TooLarge: root order {order} exceeds the limit"):
            unbiased(order, [0, 1], 1, 2)
    assert time.perf_counter() - start < 0.1
    assert vanishes(MAX_ROOT_ORDER, [0, MAX_ROOT_ORDER // 2])
