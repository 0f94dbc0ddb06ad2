"""Latin squares, complete MOLS sets, the MacNeish product and bounds."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from mubkit.latin import (
    MAX_ORDER,
    LatinSquare,
    MolsSet,
    NotLatinError,
    NotOrthogonalError,
    best_mols,
    best_mols_width,
    complete_mols_prime_power,
    constructive_mols_count,
    cyclic_square,
    export_mols,
    factorize,
    import_mols,
    macneish_product,
    mols_from_dict,
    mols_to_dict,
)
from mubkit import latin
from mubkit.galois import field_tables, prime_power
from mubkit.net import IncidenceVector, Net, mols_from_net, net_from_dict, net_from_mols
from mubkit.serial import ParseError

from reference import (complete_mols_by_cells, factorize_by_trial, first_repeated_pair,
                       latin_failure)

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9]


def test_cyclic_square_is_latin_every_order():
    for s in range(1, 13):
        sq = cyclic_square(s)  # the constructor validates Latin-ness
        assert sq.order == s
        assert sq.grid == tuple(bytes((i + j) % s for j in range(s)) for i in range(s))


def test_latin_square_rejects_repeats():
    with pytest.raises(NotLatinError):
        LatinSquare(((0, 0), (1, 1)))
    with pytest.raises(NotLatinError):
        LatinSquare(((0, 1), (0, 1)))  # column repeat
    with pytest.raises(NotLatinError):
        LatinSquare(((0, 2), (2, 0)))  # symbol out of range


def test_latin_square_stores_list_grids_as_byte_rows():
    sq = LatinSquare([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert sq.grid == (b"\x00\x01\x02", b"\x01\x02\x00", b"\x02\x00\x01")
    assert sq.grid[1][2] == 0 and [len(row) for row in sq.grid] == [3, 3, 3]


def test_squares_and_sets_hold_copies_of_their_input():
    # a square is its byte rows and a set its tuple of squares, so input
    # given as lists compares, hashes and stays as input given as tuples
    grid = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    sq = LatinSquare(grid)
    assert sq == LatinSquare(tuple(map(tuple, grid))) == cyclic_square(3)
    assert hash(sq) == hash(cyclic_square(3))
    assert not hasattr(sq, "__dict__")
    net = net_from_mols(MolsSet(3, (sq,)))
    grid[0][0] = 2
    assert sq == cyclic_square(3)
    assert net_from_mols(MolsSet(3, (sq,))) == net
    squares = [sq]
    m = MolsSet(3, squares)
    assert m == MolsSet(3, (sq,)) and hash(m) == hash(MolsSet(3, (sq,)))
    assert type(m.squares) is tuple
    squares.append(sq)
    assert m.width == 1 and m.squares == (sq,)
    # rows that are exactly bytes are immutable, so the square keeps those
    # row objects (and a tuple of them as it is); bytearray rows are copied
    rows = [bytes(row) for row in ([0, 1, 2], [1, 2, 0], [2, 0, 1])]
    kept = LatinSquare(rows)
    assert all(a is b for a, b in zip(kept.grid, rows, strict=True))
    assert LatinSquare(kept.grid).grid is kept.grid
    mutable = list(map(bytearray, rows))
    copied = LatinSquare(mutable)
    assert copied.grid == kept.grid and set(map(type, copied.grid)) == {bytes}
    mutable[0][0] = 1
    assert copied.grid == kept.grid


def test_orthogonality_witness():
    a = cyclic_square(3)
    b = LatinSquare([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
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
    assert m.squares[0].grid == (b"\x00\x01", b"\x01\x00")


def test_complete_sets_are_deterministic():
    for q in (4, 8, 9):
        assert complete_mols_prime_power(q) == complete_mols_prime_power(q)


@pytest.mark.parametrize("q", [q for q in range(2, 28) if prime_power(q)])
def test_complete_sets_match_the_cell_by_cell_construction(q):
    # rows read from the addition table by rank are the cells a*x_i + x_j
    assert complete_mols_prime_power(q) == complete_mols_by_cells(q)


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


def test_grids_over_the_order_limit_are_refused():
    assert MAX_ORDER == 256
    assert cyclic_square(MAX_ORDER).order == MAX_ORDER
    # every caller of latin.bound_order refuses with the same text
    grid = tuple(tuple((i + j) % 257 for j in range(257)) for i in range(257))
    blank = IncidenceVector(257 * 257, 0)
    for refuse in [lambda: LatinSquare(grid), lambda: cyclic_square(257),
                   lambda: mols_from_dict({"order": 257, "squares": []}),
                   lambda: field_tables(257), lambda: complete_mols_prime_power(257),
                   lambda: net_from_dict({"s": 257, "k": 0, "blocks": []}),
                   lambda: mols_from_net(Net(257, ((blank,) * 257,) * 3))]:
        with pytest.raises(ValueError, match="^TooLarge: order 257 exceeds 256$"):
            refuse()
    m2, m3 = MolsSet(2, (cyclic_square(2),)), MolsSet(129, (cyclic_square(129),))
    assert macneish_product(m2, MolsSet(128, (cyclic_square(128),))).order == 256
    with pytest.raises(ValueError, match=r"TooLarge: order 2\*129 = 258 exceeds 256"):
        macneish_product(m2, m3)


def test_factorize_matches_trial_division_by_every_integer():
    rng = random.Random(10)
    edge = [2 ** 29, 3 ** 18, 999_999_937, 31_607 ** 2, 2 * 999_999_937, 999_983 * 997]
    for n in [*range(1, 5000), *edge, *(rng.randrange(1, 10 ** 9) for _ in range(40))]:
        assert factorize(n) == factorize_by_trial(n), n


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


def test_best_mols_width_is_the_width_best_mols_builds(mols26_path):
    # mub build sizes its bound check by it before any square is built;
    # the order-26 set is ignored at every other order
    imported = import_mols(mols26_path)
    for s in range(2, 31):
        for imp in (None, imported):
            assert best_mols_width(s, imp) == best_mols(s, imp).width, (s, imp is None)
    assert best_mols_width(26, imported) == imported.width == 4


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


# -- the byte-row checks against the cell walk

def _field_grid(q: int, a: int) -> list[list[int]]:
    """Square a of the complete set of order q, read off GF(q)'s tables."""
    add, mul = field_tables(q)
    return [list(add[mul[a][i]]) for i in range(q)]


def _shuffled(rnd, grid):
    rows, cols = list(range(len(grid))), list(range(len(grid)))
    rnd.shuffle(rows)
    rnd.shuffle(cols)
    return [[grid[i][j] for j in cols] for i in rows]


@st.composite
def tampered_grids(draw):
    """A cyclic or field square of order 1, 2, ..., 255 or 256 under a
    random row and column permutation, with at most one cell changed to
    another symbol, to a symbol outside 0..s-1, or swapped with a cell of
    its row (a repeat only columns show), its cells as ints, floats or
    (order <= 2) bools, its rows tuples or lists.  A float grid the cell
    walk accepts is refused for its cells."""
    s = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 255, 256]))
    rnd = draw(st.randoms(use_true_random=False))
    if prime_power(s) and draw(st.booleans()):
        grid = _field_grid(s, rnd.randrange(1, s))
    else:
        grid = [[(i + j) % s for j in range(s)] for i in range(s)]
    grid = _shuffled(rnd, grid)
    r, c, c2 = rnd.randrange(s), rnd.randrange(s), rnd.randrange(s)
    kind = draw(st.sampled_from(["none", "cell", "in-row swap", "out of range"]))
    if kind == "cell":
        grid[r][c] = (grid[r][c] + rnd.randrange(1, s + 1)) % s
    elif kind == "in-row swap":
        grid[r][c], grid[r][c2] = grid[r][c2], grid[r][c]
    elif kind == "out of range":
        grid[r][c] = draw(st.sampled_from([s, s + 1, 255, 256, -1, 1000]))
    cell = draw(st.sampled_from([int, float, bool] if s <= 2 else [int, int, float]))
    row = draw(st.sampled_from([tuple, list]))
    return tuple(row(map(cell, r)) for r in grid)


@settings(max_examples=80, deadline=None)
@given(tampered_grids())
def test_latin_verdicts_match_the_cell_walk(grid):
    try:
        sq = LatinSquare(grid)
    except NotLatinError as exc:
        assert exc.square is None
        got = (str(exc), exc.row, exc.col)
    else:
        assert sq.grid == tuple(map(bytes, grid))
        got = None
    want = latin_failure(grid)
    if want is None and type(grid[0][0]) is float:
        want = ("cells must be integers", None, None)
    assert got == want


@st.composite
def tampered_sets(draw):
    """Up to three squares of a complete set of order q (2 to 256) under one
    row and one column permutation, which keeps them orthogonal, with at
    most one edit: a square repeated, one square's rows or symbols
    permuted apart from the rest, or one cell changed."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 256]))
    rnd = draw(st.randoms(use_true_random=False))
    grids = [_field_grid(q, a) for a in rnd.sample(range(1, q), draw(st.integers(1, min(3, q - 1))))]
    rows, cols = list(range(q)), list(range(q))
    rnd.shuffle(rows)
    rnd.shuffle(cols)
    grids = [[[g[i][j] for j in cols] for i in rows] for g in grids]
    t = rnd.randrange(len(grids))
    kind = draw(st.sampled_from(["none", "repeat", "rows", "symbols", "cell"]))
    if kind == "repeat" and len(grids) < q - 1:
        grids.insert(rnd.randrange(len(grids) + 1), grids[t])
    elif kind == "rows":
        rnd.shuffle(grids[t])
    elif kind == "symbols":
        relabel = rnd.sample(range(q), q)
        grids[t] = [[relabel[x] for x in row] for row in grids[t]]
    elif kind == "cell":
        r, c = rnd.randrange(q), rnd.randrange(q)
        grids[t][r][c] = (grids[t][r][c] + rnd.randrange(1, q)) % q
    return q, grids


@settings(max_examples=60, deadline=None)
@given(tampered_sets())
def test_mols_verdicts_match_the_cell_walk(case):
    q, grids = case
    want = None
    for idx, grid in enumerate(grids):
        failure = latin_failure(grid)
        if failure is not None:
            message, row, col = failure
            want = (NotLatinError, f"square {idx}: {message}", (idx, row, col))
            break
    pairs = [(i, j) for i in range(len(grids)) for j in range(i + 1, len(grids))]
    for i, j in pairs if want is None else ():
        pair = first_repeated_pair(grids[i], grids[j])
        if pair is not None:
            want = (NotOrthogonalError,
                    f"squares {i} and {j} are not orthogonal: pair {pair} repeats", (i, j, pair))
            break
    try:
        m = mols_from_dict({"order": q, "squares": grids})
    except NotLatinError as exc:
        got = (NotLatinError, str(exc), (exc.square, exc.row, exc.col))
    except NotOrthogonalError as exc:
        got = (NotOrthogonalError, str(exc), (exc.i, exc.j, exc.pair))
    else:
        assert [sq.grid for sq in m.squares] == [tuple(map(bytes, g)) for g in grids]
        got = None
    assert got == want


def test_float_and_bool_cells_keep_the_cell_walks_verdict():
    # bool cells are byte values and pass as the integers they equal; float
    # cells are not: the cell walk names an invalid float grid's first
    # failure, and a grid it accepts is refused for its cells
    floats = tuple(tuple(float((i + j) % 3) for j in range(3)) for i in range(3))
    with pytest.raises(NotLatinError, match="^cells must be integers$"):
        LatinSquare(floats)
    bools = ((False, True), (True, False))
    sq = LatinSquare(bools)
    assert sq.grid == (b"\x00\x01", b"\x01\x00") and sq == cyclic_square(2)
    assert MolsSet(2, (sq,)).width == 1
    with pytest.raises(NotLatinError, match="^row 0 is not a permutation of 0..1$"):
        LatinSquare(((0.5, 1.0), (1.0, 0.0)))
    with pytest.raises(NotLatinError, match="^column 0 is not a permutation of 0..1$"):
        LatinSquare(((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(NotLatinError, match="^column 0 is not a permutation of 0..1$"):
        LatinSquare(((True, False), (True, False)))


def test_float_celled_squares_never_reach_a_net_or_a_file(tmp_path):
    # a float grid equal to a Latin square once made a MolsSet whose net
    # lookup raised TypeError and whose export import_mols refused; bool
    # cells are byte values, so their square is accepted, and its export
    # once wrote JSON true and false cells, which import_mols refused
    floats = ((0.0, 1.0, 2.0), (1.0, 2.0, 0.0), (2.0, 0.0, 1.0))
    with pytest.raises(NotLatinError, match="^cells must be integers$"):
        MolsSet(3, (LatinSquare(floats),))
    bools = MolsSet(2, (LatinSquare(((False, True), (True, False))),))
    for m in (MolsSet(3, (LatinSquare([[int(x) for x in row] for row in floats]),)), bools):
        assert net_from_mols(m).k == 3
        export_mols(m, tmp_path / "m.json")
        assert import_mols(tmp_path / "m.json") == m


def test_squares_over_the_order_limit_are_refused_before_they_are_checked():
    grid = tuple(tuple((i + j) % 257 for j in range(257)) for i in range(257))
    with pytest.raises(ValueError, match="^TooLarge: order 257 exceeds 256$"):
        LatinSquare(grid)
    with pytest.raises(ValueError, match="^TooLarge: order 1009 exceeds 256$"):
        mols_from_dict({"order": 1009, "squares": [[[0]]]})


def test_the_cell_walks_run_only_on_failing_input(monkeypatch, mols26_path):
    calls = []

    def spy(name):
        real = getattr(latin, name)
        monkeypatch.setattr(latin, name, lambda *args: calls.append(name) or real(*args))

    spy("_latin_witness")
    spy("_orthogonality_witness")
    assert complete_mols_prime_power(16).width == 15
    assert complete_mols_prime_power(64).width == 63
    assert import_mols(mols26_path).width == 4
    assert calls == []
    sq = complete_mols_prime_power(16).squares[2]
    with pytest.raises(NotOrthogonalError) as info:
        MolsSet(16, (sq, sq))
    pair = first_repeated_pair(sq.grid, sq.grid)
    assert str(info.value) == f"squares 0 and 1 are not orthogonal: pair {pair} repeats"
    assert calls == ["_orthogonality_witness"]
    with pytest.raises(NotLatinError, match="^column 0 is not a permutation of 0..1$"):
        LatinSquare(((0, 1), (0, 1)))
    assert calls == ["_orthogonality_witness", "_latin_witness"]
