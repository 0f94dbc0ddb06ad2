"""Finite fields: exhaustive axiom checks at small orders.

Orders up to 16 are small enough to test every pair and triple, so these
are direct enumerations rather than sampled properties.
"""

from __future__ import annotations

import itertools

import pytest

from mubkit.galois import GField, MAX_ORDER, prime_power

FIELD_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.fixture(scope="module", params=FIELD_ORDERS)
def field(request):
    p, e = prime_power(request.param)
    return GField(p, e)


def elements(field):
    """Every element of field, in index order; index 0 is zero, 1 is one."""
    return [field.index(i) for i in range(field.q)]


def power(field, a, n):
    """a^n in field by repeated multiplication."""
    out = field.index(1)
    for _ in range(n):
        out = field.mul(out, a)
    return out


def test_is_prime_small_values():
    primes = [n for n in range(60) if prime_power(n) == (n, 1)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert [prime_power(n) for n in (-1, 0, 1, 2, 65536, 65537)] == [
        None, None, None, (2, 1), (2, 16), (65537, 1)]


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


def test_additive_group(field):
    els = elements(field)
    zero = els[0]
    for a in els:
        assert field.add(a, zero) == a
        assert any(field.add(a, b) == zero for b in els)  # a has a negative
    for a, b in itertools.product(els, repeat=2):
        assert field.add(a, b) == field.add(b, a)


def test_multiplicative_group(field):
    els = elements(field)
    zero, one = els[0], els[1]
    for a in els:
        assert field.mul(a, one) == a
        assert field.mul(a, zero) == zero
        if a != zero:
            assert any(field.mul(a, b) == one for b in els)  # a has an inverse
    for a, b in itertools.product(els, repeat=2):
        assert field.mul(a, b) == field.mul(b, a)


def test_associativity_and_distributivity(field):
    els = elements(field)
    for a, b, c in itertools.product(els, repeat=3):
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))


def test_no_zero_divisors(field):
    zero = field.index(0)
    for a, b in itertools.product(elements(field), repeat=2):
        if a != zero and b != zero:
            assert field.mul(a, b) != zero


def test_frobenius_is_additive(field):
    # x -> x^p respects addition exactly when the modulus is irreducible
    p = field.p
    for a, b in itertools.product(elements(field), repeat=2):
        lhs = power(field, field.add(a, b), p)
        rhs = field.add(power(field, a, p), power(field, b, p))
        assert lhs == rhs


def test_multiplicative_order_divides_q_minus_1(field):
    q, one = field.q, field.index(1)
    for a in elements(field)[1:]:  # every nonzero element
        assert power(field, a, q - 1) == one


def test_field_tables_are_deterministic():
    for q in FIELD_ORDERS:
        p, e = prime_power(q)
        f, g = GField(p, e), GField(p, e)
        els = elements(f)
        for a, b in itertools.product(els[: min(q, 8)], repeat=2):
            assert f.add(a, b) == g.add(a, b)
            assert f.mul(a, b) == g.mul(a, b)


def test_gf4_has_characteristic_two():
    f = GField(2, 2)
    for a in elements(f):
        assert f.add(a, a) == f.index(0)
    # the two non-identity units are inverses of each other
    x, y = f.index(2), f.index(3)
    assert f.mul(x, y) == f.index(1)

