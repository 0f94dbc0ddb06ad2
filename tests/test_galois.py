"""Finite fields as rank tables: exhaustive axiom checks at small orders,
and one digest per table pair up to MAX_ORDER.

Orders up to 16 are small enough to test every pair and triple, so these
are direct enumerations rather than sampled properties.  Elements are
ranks: 0 is zero and 1 is one.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from mubkit.galois import field_tables, prime_power
from mubkit.latin import MAX_ORDER

FIELD_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]

# sha256 of the bytes add[0] + ... + add[q-1] + mul[0] + ... + mul[q-1],
# one per prime power q <= MAX_ORDER.  The digests pin the modulus each
# search picks, so every complete MOLS set stays byte for byte the same.
TABLE_SHA256 = {
    2: "090b5ea336d2a3fae01b94507c3609d9103ac09195f599993d6271b148bf725e",
    3: "f9287b0c3bb4fee914a64727425f94be4156a17447bd12ca0d098fd1f414e913",
    4: "fc7e342da9b4f0b5a3b5a2595814de4c49e8e733d07379a4ebeabf57542ae10a",
    5: "52ba69e53329b3b2ad7e29dd8179e2fd2fca0281328fc40180696cbc7bdd84e0",
    7: "1b4435bbb6ea8cb7eec2865d6328e4544fdd7de743f768a3d7d5376521cecd51",
    8: "72cefa1f626a6ad2b1bbcbf213d96c9248525f69793f2dd371748eaa438259a5",
    9: "db74138954ff101e0257f1efcee10a77dad78d02fab275ac89da02606bed1cbe",
    11: "d3056bc16c3096b387c5f4b4bd5e171c744b05832be57d31b4d53326c87459ca",
    13: "f3034a90fb9bb8a7546579ff1dd543ec5fab2dbf1cd3aa301edf4363997be589",
    16: "8b076e9d630e001b9a362913bf8b4679e459e56993907c7f7c179e5af36769b5",
    17: "6fea06b6df2c1ab86547b029d10d1e34a4182a3e6cb480f995bc2caa7b2ab68f",
    19: "7b58829892fb11371f83866a307528768c0d72c14b3c92abf8afd3c324c6fbbe",
    23: "2b5debbdc2a7ff0e0b9e71f9729ff5a3ff4e887ea60272e6efe2bf1204c40954",
    25: "fcfb85b40af7cf8a723c96790a7a3949f23fb701e6186af5f86df6f4e7cd1a12",
    27: "dbdf897f36eff7398e8ce22a9b2d22d06021f3b9a7885b4e093d96f404c4083d",
    29: "e7d6d2cf7bc1766016c0ca13c8a17622b7ca92d13a98ecfb50e7381a3b7582fb",
    31: "ced68c7c0630cca5c62529f4dd7c4492ed437c6b2c9c784d2d58d2c9f63edbdc",
    32: "2252df37e57766d406741035c7639119b6266852b8dd6d472619e79209cc67e8",
    37: "21f366b2db86af7fd41554848016a9cfcfede9b9f2d2d434d8f356b0d76e82d8",
    41: "ac59964962f6033b453c6479a0ed406c66842fc68256a4e92e6605c2810a68e3",
    43: "a613948ea9a9cef9d652f9cf7c856a9e547c85c91a249ecc5841f7ca72277b67",
    47: "0818eedc0f490b04f2d3be9395b39e18d3f914b8a62316e88010005a5adcc405",
    49: "202007eb98593dd6941fe20deb1c2ba5b223372b95cf986775fdf51a289706a1",
    53: "f37fda179bd60a757e882591899550f660972e3aa26b1841de47281dbd990093",
    59: "433535f5447a362abfad1136f46b7a48e67ac53460b2f2fee56da656971ddc9f",
    61: "a2f55f6878684d6687bb3b4674b230cf3eebb6708e1479667a9c9de2d3915f4a",
    64: "58d6c1c00b1acf6e0ac0b092da3479e86d51b514e5c033080813caba93b069d4",
    67: "1baf77691cbb2029fbd2e0b2843cc0ff832046ca00269396aaeaf89aa4c5bac8",
    71: "c5bf1bd69da63377ce4f66cf521a9c2e7ff4ca3204961d505d889f30289ccc9d",
    73: "d39618c606d993fd3a1a02d2761c1b93f079be7e2b81396ab4818ad9fee8703c",
    79: "08722b834185520c57a2f897d46dbe02ed1ee8e1fd39de38bae1f80531edc1fc",
    81: "0b439286377ea7f7229b0a3aed36d183f8a3afe06ffbd25009fa623fafa39f27",
    83: "da6c4345dff6881a979bc5bd585b3cb728675b4c049bde8441023946c94790cd",
    89: "3bea6258f64a067eeb995a8a3eaba4f11afc47658855ef06b37a277b963d62b7",
    97: "52cba967e8e990600bc38d0791f5f2a3c62b220d62c9927cb7a17abfba9ed98d",
    101: "8c8879aa30c8a6900ff31ac3a2dd27badd672ff6b3db0190034c648a05ba2a4b",
    103: "260ea74650b4ed400dc98307ac1ee586b6690b55e45ac55a3a87dda614a57c4c",
    107: "f953cb5f02b31da60e38e41f32b376cda64ce309bf224897eedf93ca4cd8a519",
    109: "ba07f5cd7fe514b6d24584c5cc5cafd65d41c8e0736e897cfaf8fe4230db204c",
    113: "5e1d0dc45b1046014506039bffc49bd871c34b20937a8dbc3d7f57a88ba26c62",
    121: "f7858b5bb266714e507e4437360c8092d354161984f340ebd5ec44ee3e249c95",
    125: "2815b31fe7c73b3ad9bae54147f0e725da0b4282c00d841cb0edbe5838bbab23",
    127: "ccbe219280778932ee217ec0f00c7dfdba96ff010db5ef17205151328b9dfd1e",
    128: "58d499cf66802f014d6eb9f53480061065d2f4607b88dd9782f4138e5d06e303",
    131: "e8882f160f2b99fc4e8834635ea1c70f4b34bbbb4d67ea0ca02f5a43c3b6d668",
    137: "c455c0692543de60c0ff21b9c7df43e622573205c1683274a685bc695c554a17",
    139: "e1df27c026661240618413b06b45179fda38f574520aedda4b31f6824cb0cfc4",
    149: "c148cb8ac995dea3e75787d72960899b7e73d6e550cec9b73e08b779bb0be6a7",
    151: "6aea901f06582814038a3d56e7a1c6cafd9f04299d8069176d5b1b53e311ada8",
    157: "5d0b05c2427fe3a6a60cc2ebf0eeacb5d46527067cf245878ae2e6ac28f68abb",
    163: "deef3aea340a8848da9413095d206bd216f0abcd86370160dc1e9704a9879c95",
    167: "076ee53e52375883aab47fd3b99aab9f66de506b2e83e774d5a5cbdfdf246db6",
    169: "a5672a9953f5b6606a4a1ec4ebe463dbe63c49f56af8e111254bc1154d662408",
    173: "f3370f100143a00145e22ddcb4ebb2d6d21c58f52bb4c9908cb49997898c547b",
    179: "e3e46f1b14bc4bc2afd40e8c80672563513216051ed1b0b341dfe5c2907fa1ab",
    181: "ff89119d44b68cfe9eb6a765218f0223eaf36a031d2474963ff873fc572f84ba",
    191: "a96f7e069036332c96f9c1f0e1b933d93a3d17e1872a988cb54f1344d5c24813",
    193: "4f0c4e44aeb3a31b927a06ef2c5d82c358ff8d7dd3b1f18c5daa6096b06d03fd",
    197: "765747ffa02e8e592ad0d1a8bc63ffe3e5302891a7e471f0ad2cea6fb401368c",
    199: "e7da24b3a86e2d103b1a2c72424dfff38a8b34fbd4e0517332abbd15d2e33c87",
    211: "a99dd22adc4c874a5fd5f05c7104a252c67bf9c3c6a8ffc5a883ab49ea0b0736",
    223: "dd44120b1c3144bd6b58108149ca9de774a9c9cfaa66273479d32dadc5772322",
    227: "376b9aa51cfc6b169caeb120a5006ccef42272a3a13692118c5737fede09548b",
    229: "10cabede981a3ee832ff01f13ed2bb24132cf453167227506c600c20effcccce",
    233: "9a98f3170bd7407ff9eb7000e8e2da58f600631c9b8db31d92de9d5789b3e77c",
    239: "b3faa4f13c05e27eca9133b30d50349a968f1d31d649ad831056a88bc3b2f75b",
    241: "05049b2a46fa3202c6e7b3014c1ef5c60d94a6967abd104df6e74a5fff66ed37",
    243: "00f5d318840bb42cbe4dbab7031da1ef537544fc40209bdc7f69ecc379034407",
    251: "092b2c5c56459cbe8ad80478b385d8188fbaff8b440db2ae72dd43a790dc81cb",
    256: "132d3ac1b31f4047146591fff4cf067476d7c26f7417eccf9244d624b62d3faa",
}


@pytest.fixture(scope="module", params=FIELD_ORDERS)
def field(request):
    """(q, p, add, mul) for the field of order request.param."""
    q = request.param
    return (q, prime_power(q)[0], *field_tables(q))


def power(mul, a, n):
    """a^n by repeated multiplication."""
    out = 1
    for _ in range(n):
        out = mul[out][a]
    return out


def table_digest(add, mul) -> str:
    return hashlib.sha256(bytes(itertools.chain.from_iterable(add + mul))).hexdigest()


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
    assert MAX_ORDER == 256
    for q in (257, 512, 1 << 16, 10**30):  # prime, prime powers, and one too big to factor
        with pytest.raises(ValueError, match=f"TooLarge: order {q} exceeds 256"):
            field_tables(q)


def test_field_tables_refuse_non_prime_powers():
    for q in (-4, 0, 1, 6, 12, 100, 255):
        with pytest.raises(ValueError, match=f"NotPrimePower: {q}$"):
            field_tables(q)


def test_element_integer_bijection(field):
    # a rank's base-p digits, low first, are the element's coefficients,
    # and addition is coefficient-wise mod p
    q, p, add, _ = field
    e = prime_power(q)[1]

    def digits(r):
        return [r // p**i % p for i in range(e)]

    for a, b in itertools.product(range(q), repeat=2):
        assert digits(add[a][b]) == [(x + y) % p for x, y in zip(digits(a), digits(b))]


def test_additive_group(field):
    q, _, add, _ = field
    for a in range(q):
        assert add[a][0] == a
        assert 0 in add[a]  # a has a negative
    for a, b in itertools.product(range(q), repeat=2):
        assert add[a][b] == add[b][a]


def test_multiplicative_group(field):
    q, _, _, mul = field
    for a in range(q):
        assert mul[a][1] == a
        assert mul[a][0] == 0
        if a:
            assert 1 in mul[a]  # a has an inverse
    for a, b in itertools.product(range(q), repeat=2):
        assert mul[a][b] == mul[b][a]


def test_associativity_and_distributivity(field):
    q, _, add, mul = field
    for a, b, c in itertools.product(range(q), repeat=3):
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_no_zero_divisors(field):
    q, _, _, mul = field
    for a, b in itertools.product(range(1, q), repeat=2):
        assert mul[a][b] != 0


def test_frobenius_is_additive(field):
    # x -> x^p respects addition exactly when the modulus is irreducible
    q, p, add, mul = field
    for a, b in itertools.product(range(q), repeat=2):
        assert power(mul, add[a][b], p) == add[power(mul, a, p)][power(mul, b, p)]


def test_multiplicative_order_divides_q_minus_1(field):
    q, _, _, mul = field
    for a in range(1, q):  # every nonzero element
        assert power(mul, a, q - 1) == 1


def test_field_tables_are_deterministic():
    for q in FIELD_ORDERS:
        assert field_tables(q) == field_tables(q)


def test_field_tables_match_their_digests():
    # a search that picked another irreducible modulus (say the last one
    # instead of the first at q = 8) fails here
    assert list(TABLE_SHA256) == [q for q in range(2, MAX_ORDER + 1) if prime_power(q)]
    for q, digest in TABLE_SHA256.items():
        add, mul = field_tables(q)
        assert len(add) == len(mul) == q and all(len(r) == q for r in add + mul)
        assert table_digest(add, mul) == digest, q


def test_gf4_has_characteristic_two():
    add, mul = field_tables(4)
    for a in range(4):
        assert add[a][a] == 0
    # the two non-identity units are inverses of each other
    assert mul[2][3] == 1
