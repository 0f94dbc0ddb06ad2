"""Finite fields: exhaustive axiom checks at small orders.

Orders up to 16 are small enough to test every pair and triple, so these
are direct enumerations rather than sampled properties.
"""

from __future__ import annotations

import itertools

import pytest

from mubkit.galois import GField, MAX_ORDER, is_prime, prime_power

FIELD_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.fixture(scope="module", params=FIELD_ORDERS)
def field(request):
    p, e = prime_power(request.param)
    return GField(p, e)


def power(field, a, n):
    """a^n in field by repeated multiplication."""
    out = field.one
    for _ in range(n):
        out = field.mul(out, a)
    return out


def test_is_prime_small_values():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_prime_power_detection():
    assert prime_power(2) == (2, 1)
    assert prime_power(4) == (2, 2)
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(27) == (3, 3)
    assert prime_power(121) == (11, 2)
    assert prime_power(1) is None
    assert prime_power(6) is None
    assert prime_power(12) is None
    assert prime_power(100) is None


def test_order_cap_enforced():
    with pytest.raises(ValueError):
        GField(2, 17)  # 2^17 > MAX_ORDER
    assert MAX_ORDER == 1 << 16


def test_constructor_rejects_nonprime_characteristic():
    with pytest.raises(ValueError):
        GField(4)
    with pytest.raises(ValueError):
        GField(6, 2)


def test_element_integer_bijection(field):
    q = field.q
    seen = set()
    for i in range(q):
        a = field.index(i)
        assert field.rank(a) == i
        seen.add(a)
    assert len(seen) == q
    assert list(field.elements()) == [field.index(i) for i in range(q)]


def test_additive_group(field):
    els = list(field.elements())
    zero = field.zero
    for a in els:
        assert field.add(a, zero) == a
        assert field.add(a, field.neg(a)) == zero
        assert field.sub(a, a) == zero
    for a, b in itertools.product(els, repeat=2):
        assert field.add(a, b) == field.add(b, a)


def test_multiplicative_group(field):
    els = list(field.elements())
    zero, one = field.zero, field.one
    for a in els:
        assert field.mul(a, one) == a
        assert field.mul(a, zero) == zero
        if a != zero:
            assert any(field.mul(a, b) == one for b in els)  # a has an inverse
    for a, b in itertools.product(els, repeat=2):
        assert field.mul(a, b) == field.mul(b, a)


def test_associativity_and_distributivity(field):
    els = list(field.elements())
    for a, b, c in itertools.product(els, repeat=3):
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))


def test_no_zero_divisors(field):
    zero = field.zero
    for a, b in itertools.product(field.elements(), repeat=2):
        if a != zero and b != zero:
            assert field.mul(a, b) != zero


def test_frobenius_is_additive(field):
    # x -> x^p respects addition exactly when the modulus is irreducible
    p = field.p
    for a, b in itertools.product(field.elements(), repeat=2):
        lhs = power(field, field.add(a, b), p)
        rhs = field.add(power(field, a, p), power(field, b, p))
        assert lhs == rhs


def test_multiplicative_order_divides_q_minus_1(field):
    q, one = field.q, field.one
    for a in field.elements():
        if a != field.zero:
            assert power(field, a, q - 1) == one


def test_field_tables_are_deterministic():
    for q in FIELD_ORDERS:
        p, e = prime_power(q)
        f, g = GField(p, e), GField(p, e)
        els = list(f.elements())
        for a, b in itertools.product(els[: min(q, 8)], repeat=2):
            assert f.add(a, b) == g.add(a, b)
            assert f.mul(a, b) == g.mul(a, b)


def test_gf4_has_characteristic_two():
    f = GField(2, 2)
    for a in f.elements():
        assert f.add(a, a) == f.zero
    # the two non-identity units are inverses of each other
    x, y = f.index(2), f.index(3)
    assert f.mul(x, y) == f.one

