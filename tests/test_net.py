"""Nets over s^2 points and their correspondence with MOLS."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from mubkit import net as net_module
from mubkit.latin import (
    MAX_ORDER,
    LatinSquare,
    MolsSet,
    best_mols,
    complete_mols_prime_power,
    cyclic_square,
    import_mols,
)
from mubkit.net import (
    IncidenceVector,
    Net,
    load_net,
    mols_from_net,
    net_from_dict,
    net_from_mols,
    net_to_dict,
    save_net,
    verify_net,
)
from mubkit.serial import ParseError

from reference import net_from_mols_by_scan, net_violations

PRIME_POWERS = [2, 3, 4, 5, 7, 9]


def vec(bits: str) -> IncidenceVector:
    return IncidenceVector.from_bits01(bits)


# -- incidence vectors

def test_incidence_vector_basics():
    v = IncidenceVector(4, 0b0101)  # points 0 and 2
    assert v.weight == 2
    assert v.support == (0, 2)
    assert v.to_bits01() == "1010"
    assert vec("1010") == v


def test_incidence_vector_validation():
    with pytest.raises(ValueError, match="out of range"):
        IncidenceVector(4, 1 << 4)  # point 4 of a length-4 vector
    with pytest.raises(ValueError, match="out of range"):
        IncidenceVector(4, -1)
    with pytest.raises(ValueError):
        IncidenceVector.from_bits01("10x0")


@given(st.text(alphabet="01", min_size=0, max_size=40))
def test_bits01_round_trip(text):
    assert vec(text).to_bits01() == text


@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 4096])
def test_bits01_round_trip_at_word_edges(length):
    # character p is bit p, and the zeros past the highest set bit survive
    rng = random.Random(length)
    for bits in {0, (1 << length) - 1, 1 << length >> 1, rng.getrandbits(length)}:
        v = IncidenceVector(length, bits)
        text = v.to_bits01()
        assert len(text) == length
        assert text == "".join("1" if bits >> p & 1 else "0" for p in range(length))
        assert vec(text) == v


@pytest.mark.parametrize("text", ["1_0", " 10", "10 ", "+1", "0b1", "١"])
def test_bits01_takes_no_other_numeral_syntax(text):
    with pytest.raises(ValueError, match="only 0 and 1"):
        vec(text)


# -- the reference (3,2)-net over 4 points

REFERENCE_32_BLOCKS = (
    ("1100", "0011"),  # rows of the 2x2 grid
    ("1010", "0101"),  # columns
    ("1001", "0110"),  # level sets of the order-2 square
)


def test_net_of_order_2_square_matches_reference_table():
    m = MolsSet(2, (cyclic_square(2),))
    net = net_from_mols(m)
    assert net.s == 2 and net.k == 3 and net.d == 4
    got = tuple(tuple(v.to_bits01() for v in block) for block in net.blocks)
    assert got == REFERENCE_32_BLOCKS


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 7, 8, 9, 16, 26, 32])
def test_net_from_mols_matches_the_scan_per_symbol(s, mols26_path):
    m = import_mols(mols26_path) if s == 26 else best_mols(s)
    assert m.width >= 1
    assert net_from_mols(m) == net_from_mols_by_scan(m)


def test_reference_net_serializes_bit_for_bit():
    net = net_from_mols(MolsSet(2, (cyclic_square(2),)))
    assert net_to_dict(net) == {
        "s": 2,
        "k": 3,
        "blocks": [list(b) for b in REFERENCE_32_BLOCKS],
    }


# -- verification

@pytest.mark.parametrize("q", PRIME_POWERS)
def test_nets_from_complete_mols_verify(q):
    net = net_from_mols(complete_mols_prime_power(q))
    assert net.k == q + 1
    report = verify_net(net)
    assert report.ok and report.violations == ()


def test_weight_violation_is_reported():
    blocks = (
        (vec("1000"), vec("0011")),  # first vector has weight 1, not 2
        (vec("1010"), vec("0101")),
    )
    report = verify_net(Net(2, blocks))
    kinds = {v.kind for v in report.violations}
    assert not report.ok
    assert "weight" in kinds
    first = [v for v in report.violations if v.kind == "weight"][0]
    assert (first.block, first.index) == (0, 0)


def test_within_block_violation_is_reported():
    blocks = (
        (vec("1100"), vec("0110")),  # share point 1
        (vec("1010"), vec("0101")),
    )
    report = verify_net(Net(2, blocks))
    assert any(v.kind == "within-block" and v.block == 0 and v.block2 == 0
               for v in report.violations)


def test_cross_block_violation_is_reported():
    blocks = (
        (vec("1100"), vec("0011")),
        (vec("1100"), vec("0011")),  # meets block 0 in 2 points / 0 points
    )
    report = verify_net(Net(2, blocks))
    cross = [v for v in report.violations if v.kind == "cross-block"]
    assert cross and all(v.block == 0 and v.block2 == 1 for v in cross)


def test_violations_are_sorted():
    blocks = (
        (vec("1100"), vec("0110")),
        (vec("1100"), vec("0011")),
    )
    report = verify_net(Net(2, blocks))
    keys = [v.sort_key() for v in report.violations]
    assert keys == sorted(keys)


def test_net_shape_validation():
    with pytest.raises(ValueError, match="bound"):
        Net(1, ((vec("1"),), (vec("1"),), (vec("1"),)))  # k > s + 1
    with pytest.raises(ValueError):
        Net(2, ((vec("1100"),),))  # block of wrong size
    with pytest.raises(ValueError):
        Net(2, ((vec("110"), vec("001")),))  # wrong vector length


# -- MOLS <-> net round trips

@pytest.mark.parametrize("q", PRIME_POWERS)
def test_mols_round_trip_through_net(q):
    m = complete_mols_prime_power(q)
    assert mols_from_net(net_from_mols(m)) == m


def test_mols_from_net_needs_two_blocks():
    net = net_from_mols(MolsSet(2, (cyclic_square(2),)))
    with pytest.raises(ValueError, match="TooFewBlocks"):
        mols_from_net(Net(2, net.blocks[:1]))


def test_mols_from_net_rejects_unverified_input():
    blocks = (
        (vec("1100"), vec("0110")),
        (vec("1010"), vec("0101")),
    )
    with pytest.raises(ValueError, match="Inconsistent"):
        mols_from_net(Net(2, blocks))


def test_two_block_net_yields_empty_mols():
    net = net_from_mols(complete_mols_prime_power(3))
    m = mols_from_net(Net(3, net.blocks[:2]))
    assert (m.order, m.width) == (3, 0)


# -- serialization

def test_json_round_trip(tmp_path):
    net = net_from_mols(complete_mols_prime_power(4))
    assert net_from_dict(net_to_dict(net)) == net
    path = tmp_path / "net4.json"
    save_net(net, path)
    assert load_net(path) == net


def test_parse_rejects_malformed_documents():
    good = net_to_dict(net_from_mols(MolsSet(2, (cyclic_square(2),))))
    for bad in [
        {},
        {**good, "extra": 0},
        {**good, "k": 2},                     # k disagrees with blocks
        {**good, "s": True},
        {**good, "blocks": [["1100", "0011"]]},
        {"s": 2, "k": 1, "blocks": [["1100", "001"]]},   # ragged bits
        {"s": 2, "k": 1, "blocks": [["1100", "0a11"]]},  # bad character
        {"s": 1, "k": 3, "blocks": [["1"], ["1"], ["1"]]},  # k > s + 1
    ]:
        with pytest.raises(ParseError):
            net_from_dict(bad)


@settings(max_examples=20)
@given(st.sampled_from(PRIME_POWERS), st.data())
def test_dropping_blocks_keeps_a_net_valid(q, data):
    full = net_from_mols(complete_mols_prime_power(q))
    keep = data.draw(st.integers(min_value=1, max_value=full.k))
    report = verify_net(Net(q, full.blocks[:keep]))
    assert report.ok




def from_bits(s: int, blocks) -> Net:
    return Net(s, tuple(tuple(IncidenceVector(s * s, bits) for bits in block) for block in blocks))


def swap_first_points(net: Net, b: int, i: int, j: int) -> Net:
    """net with the lowest points of vectors i and j of block b exchanged:
    every weight stays s and every block a partition."""
    blocks = [[vec.bits for vec in block] for block in net.blocks]
    u, v = blocks[b][i], blocks[b][j]
    p, r = u & -u, v & -v
    blocks[b][i], blocks[b][j] = u ^ p ^ r, v ^ r ^ p
    return from_bits(net.s, blocks)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_valid_nets_never_enter_the_pairwise_walk(q, monkeypatch):
    calls = []
    walk = net_module._pairwise_violations

    def counting(net):
        calls.append(net)
        return walk(net)

    monkeypatch.setattr(net_module, "_pairwise_violations", counting)
    full = net_from_mols(complete_mols_prime_power(q))
    for k in range(full.k + 1):
        assert verify_net(Net(q, full.blocks[:k])).ok
    assert calls == []
    # a swap inside the row block keeps every block a partition, but puts
    # one symbol of each square twice into rows 0 and 1: the walk names them
    bad = swap_first_points(full, 0, 0, 1)
    report = verify_net(bad)
    assert len(calls) == 1
    assert not report.ok and report.violations == net_violations(bad)
    assert {v.kind for v in report.violations} == {"cross-block"}


@st.composite
def tampered_nets(draw) -> Net:
    """A net from a complete MOLS set, or a prefix of its blocks, with one
    tampering: a point moved inside its vector, a point moved to another
    vector of the block, two vectors of a block swapping a point, a point
    moved to a vector of any block, a vector overwritten by another, a
    point added or removed."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7]))
    full = net_from_mols(complete_mols_prime_power(q))
    k = draw(st.integers(1, full.k))
    blocks = [[vec.bits for vec in block] for block in full.blocks[:k]]
    d = q * q
    b, c = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    i, j = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
    u, v = blocks[b][i], blocks[c][j]
    p = 1 << draw(st.sampled_from([t for t in range(d) if u >> t & 1]))
    r = 1 << draw(st.integers(0, d - 1))
    kind = draw(st.sampled_from(["shift", "move", "swap", "across", "duplicate", "weight"]))
    if kind == "shift" and not u & r:
        blocks[b][i] = u ^ p ^ r
    elif kind in ("move", "swap"):
        j = (i + 1 + j % (q - 1)) % q  # another vector of block b
        v = blocks[b][j]
        r = r if kind == "swap" and v & r else 0
        blocks[b][i], blocks[b][j] = u ^ p | r, (v | p) ^ r
    elif kind == "across":
        blocks[b][i] = u ^ p
        blocks[c][j] = blocks[c][j] | p
    elif kind == "duplicate":
        blocks[c][j] = u
    elif kind == "weight":
        blocks[b][i] = u ^ r
    return from_bits(q, blocks)


@settings(max_examples=300, deadline=None)
@given(tampered_nets())
def test_reports_on_tampered_nets_match_the_pairwise_reference(net):
    assert verify_net(net).violations == net_violations(net)


def test_reports_on_swapped_points_match_the_pairwise_reference():
    # swaps keep the weights and partitions the fast check reads first
    for q in (3, 4, 5):
        full = net_from_mols(complete_mols_prime_power(q))
        for b in range(full.k):
            bad = swap_first_points(full, b, 0, q - 1)
            assert verify_net(bad).violations == net_violations(bad) != ()

@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_support_lists_the_set_bits_in_order(case):
    length, bits = case
    # a random pattern, no bit, bit 0 alone, the top bit alone, every bit
    for b in (bits, 0, 1, 1 << (length - 1), (1 << length) - 1):
        assert IncidenceVector(length, b).support == tuple(
            p for p in range(length) if b >> p & 1)
    assert IncidenceVector(0, 0).support == ()


def test_a_net_pickles_its_fields_alone():
    # the cached supports sit in each vector's instance dict; a pickle
    # holds length and bits only, and the copy reads its own
    n = net_from_mols(complete_mols_prime_power(16))
    before = pickle.dumps(n)
    vectors = [v for block in n.blocks for v in block]
    assert all(len(v.support) == 16 for v in vectors)
    assert all("support" in vars(v) for v in vectors)
    after = pickle.dumps(n)
    assert len(after) == len(before)
    back = pickle.loads(after)
    assert back == n and type(back) is Net
    assert all(type(v) is IncidenceVector and vars(v) == {} for block in back.blocks for v in block)
    assert verify_net(back) == verify_net(n)


def relabelled(net: Net, points: list[int], rows: list[int], cols: list[int]) -> Net:
    """net with point p moved to points[p], row vector i replaced by row
    vector rows[i] and column vector j by column vector cols[j]."""
    def moved(bits: int) -> int:
        return sum(1 << points[p] for p in range(net.d) if bits >> p & 1)

    blocks = [[moved(vec.bits) for vec in block] for block in net.blocks]
    if net.k >= 2:
        blocks[0] = [blocks[0][i] for i in rows]
        blocks[1] = [blocks[1][j] for j in cols]
    return from_bits(net.s, blocks)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRIME_POWERS), st.booleans(), st.data())
def test_nets_on_relabelled_points_read_back_their_squares(q, permute_vectors, data):
    # no net built from MOLS has its points outside row-major order
    m = complete_mols_prime_power(q)
    full = net_from_mols(m)
    k = data.draw(st.integers(0, full.k))
    points = data.draw(st.permutations(range(q * q)))
    rows = data.draw(st.permutations(range(q))) if permute_vectors else range(q)
    cols = data.draw(st.permutations(range(q))) if permute_vectors else range(q)
    net = relabelled(Net(q, full.blocks[:k]), points, rows, cols)
    walks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(net_module, "_pairwise_violations", lambda net: walks.append(net) or [])
        assert verify_net(net).ok and walks == []
    if k >= 2:
        assert mols_from_net(net) == MolsSet(q, tuple(
            LatinSquare(tuple(tuple(sq.grid[i][j] for j in cols) for i in rows))
            for sq in m.squares[:k - 2]))


@pytest.mark.parametrize("q", [4, 9, 16])
def test_mols_from_net_builds_one_owner_table_per_block(q, monkeypatch):
    owners, walks = [], []
    table = net_module._owners
    monkeypatch.setattr(net_module, "_owners", lambda block, d: owners.append(d) or table(block, d))
    monkeypatch.setattr(net_module, "_pairwise_violations", lambda net: walks.append(net) or [])
    m = complete_mols_prime_power(q)
    assert mols_from_net(net_from_mols(m)) == m
    assert owners == [q * q] * (q + 1) and walks == []


def test_nets_of_squares_over_the_order_limit_are_not_read_back():
    s = MAX_ORDER + 1
    d = s * s
    # rows, columns and the level sets of the addition table mod s
    rows = [((1 << s) - 1) << i * s for i in range(s)]
    cols = [sum(1 << i * s + j for i in range(s)) for j in range(s)]
    sums = [sum(1 << i * s + (v - i) % s for i in range(s)) for v in range(s)]
    net = from_bits(s, [rows, cols, sums])
    assert net.d == d
    with pytest.raises(ValueError, match=f"TooLarge: order {s} exceeds {MAX_ORDER}"):
        mols_from_net(net)
    assert mols_from_net(Net(s, net.blocks[:2])) == MolsSet(s)
