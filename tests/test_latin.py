"""Latin squares, complete MOLS sets, the MacNeish product and bounds."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from mubkit.latin import (
    LatinSquare,
    MolsSet,
    NotLatinError,
    NotOrthogonalError,
    best_mols,
    complete_mols_prime_power,
    constructive_mols_count,
    cyclic_square,
    export_mols,
    factorize,
    import_mols,
    macneish_product,
    mols_from_dict,
    mols_to_dict,
    square_of,
)
from mubkit.serial import ParseError

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9]


def test_cyclic_square_is_latin_every_order():
    for s in range(1, 13):
        sq = cyclic_square(s)  # the constructor validates Latin-ness
        assert sq.order == s
        assert sq[0] == tuple(range(s))


def test_latin_square_rejects_repeats():
    with pytest.raises(NotLatinError):
        LatinSquare(((0, 0), (1, 1)))
    with pytest.raises(NotLatinError):
        LatinSquare(((0, 1), (0, 1)))  # column repeat
    with pytest.raises(NotLatinError):
        LatinSquare(((0, 2), (2, 0)))  # symbol out of range


def test_square_of_round_trips_lists():
    sq = square_of([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert sq.grid == ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def test_orthogonality_witness():
    a = cyclic_square(3)
    b = square_of([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    assert MolsSet(3, (a, b)).width == 2
    with pytest.raises(NotOrthogonalError):
        MolsSet(3, (a, a))  # a square never pairs with itself


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_complete_sets_have_maximum_width(q):
    m = complete_mols_prime_power(q)  # the constructor checks orthogonality
    assert m.order == q
    assert m.width == q - 1
    for i, a in enumerate(m.squares):
        for b in m.squares[i + 1:]:
            MolsSet(q, (a, b))


def test_complete_set_requires_prime_power():
    with pytest.raises(ValueError):
        complete_mols_prime_power(6)
    with pytest.raises(ValueError):
        complete_mols_prime_power(1)


def test_complete_set_order_2_is_the_single_square():
    m = complete_mols_prime_power(2)
    assert m.squares[0].grid == ((0, 1), (1, 0))


def test_complete_sets_are_deterministic():
    for q in (4, 8, 9):
        assert complete_mols_prime_power(q) == complete_mols_prime_power(q)


def test_mols_set_rejects_non_orthogonal_pairs():
    a = cyclic_square(3)
    with pytest.raises(NotOrthogonalError):
        MolsSet(3, (a, a))


def test_mols_set_enforces_width_cap():
    squares = complete_mols_prime_power(3).squares
    with pytest.raises(ValueError, match="impossible"):
        MolsSet(3, squares + squares + squares)


def test_macneish_product_multiplies_orders():
    m = macneish_product(complete_mols_prime_power(3), complete_mols_prime_power(4))
    assert m.order == 12
    assert m.width == 2  # min(2, 3)
    m2 = macneish_product(complete_mols_prime_power(2), complete_mols_prime_power(13))
    assert m2.order == 26
    assert m2.width == 1


def test_factorize_known_values():
    assert factorize(4732) == [(2, 2), (7, 1), (13, 2)]
    assert factorize(6084) == [(2, 2), (3, 2), (13, 2)]
    assert factorize(2) == [(2, 1)]
    assert factorize(1) == []
    with pytest.raises(ValueError):
        factorize(0)


def test_constructive_count_known_values():
    assert constructive_mols_count(2) == 1
    assert constructive_mols_count(6) == 1   # min(2, 3) - 1
    assert constructive_mols_count(9) == 8
    assert constructive_mols_count(10) == 1
    assert constructive_mols_count(12) == 2  # min(4, 3) - 1
    assert constructive_mols_count(26) == 1
    assert constructive_mols_count(36) == 3  # min(4, 9) - 1
    assert constructive_mols_count(78) == 1


def test_best_mols_builds_the_macneish_set():
    m = best_mols(12)
    assert (m.order, m.width) == (12, 2)
    with pytest.raises(ValueError):
        best_mols(1)


def test_best_mols_uses_wider_imports(mols26_path):
    imported = import_mols(mols26_path)
    assert best_mols(26, imported) is imported
    assert best_mols(26).width == 1


def test_json_round_trip(tmp_path):
    m = complete_mols_prime_power(4)
    assert mols_from_dict(mols_to_dict(m)) == m
    path = tmp_path / "m4.json"
    export_mols(m, path)
    assert import_mols(path) == m


def test_parse_rejects_malformed_documents():
    good = mols_to_dict(complete_mols_prime_power(3))
    for bad in [
        {},
        {"order": 3},
        {**good, "extra": 1},
        {**good, "order": True},
        {**good, "order": "3"},
        {"order": 3, "squares": "nope"},
        {"order": 3, "squares": [[[0, 1, 2], [1, 2, 0]]]},  # ragged square
    ]:
        with pytest.raises(ParseError):
            mols_from_dict(bad)


def test_parse_checks_cells_like_serial_is_int():
    good = [list(r) for r in cyclic_square(3).grid]
    for cell in (True, 1.0, "1", None, [1]):
        grid = [row[:] for row in good]
        grid[2][1] = cell
        with pytest.raises(ParseError, match="^square 0 must be a list of integer rows$"):
            mols_from_dict({"order": 3, "squares": [grid]})

    class Symbol(int):
        pass

    grid = [[Symbol(x) for x in row] for row in good]
    assert mols_from_dict({"order": 3, "squares": [grid]}).squares[0] == cyclic_square(3)


def test_parse_names_the_first_bad_column():
    with pytest.raises(NotLatinError) as info:
        mols_from_dict({"order": 3, "squares": [[[0, 1, 2], [1, 2, 0], [2, 1, 0]]]})
    assert str(info.value) == "square 0: column 1 is not a permutation of 0..2"
    assert (info.value.square, info.value.row, info.value.col) == (0, None, 1)


def test_parse_names_the_first_repeated_pair():
    # rows 0, 2, 1, 3 of the cyclic square: row 3 repeats every pair of row 0
    a = [list(r) for r in cyclic_square(4).grid]
    b = [a[0], a[2], a[1], a[3]]
    with pytest.raises(NotOrthogonalError) as info:
        mols_from_dict({"order": 4, "squares": [a, b]})
    assert str(info.value) == "squares 0 and 1 are not orthogonal: pair (3, 3) repeats"
    assert (info.value.i, info.value.j, info.value.pair) == (0, 1, (3, 3))


def test_parse_surfaces_domain_failures_with_their_own_types():
    # schema-valid documents that fail mathematically raise the domain error
    with pytest.raises(NotLatinError):
        mols_from_dict({"order": 2, "squares": [[[0, 2], [2, 0]]]})
    grid = [list(r) for r in cyclic_square(3).grid]
    with pytest.raises(NotOrthogonalError):
        mols_from_dict({"order": 3, "squares": [grid, grid]})


@settings(max_examples=30)
@given(st.sampled_from(PRIME_POWERS), st.sampled_from(PRIME_POWERS))
def test_macneish_width_is_the_minimum(qa, qb):
    a, b = complete_mols_prime_power(qa), complete_mols_prime_power(qb)
    m = macneish_product(a, b)
    assert m.order == qa * qb
    assert m.width == min(a.width, b.width)


@given(st.integers(2, 500))
def test_constructive_count_is_a_positive_macneish_bound(s):
    w = constructive_mols_count(s)
    assert 1 <= w <= s - 1
    assert w == min(p**e for p, e in factorize(s)) - 1
