"""Seeded inputs and known answers for the three workloads.

Every document is built here with the benchmark's own arithmetic, never by
mubkit, so the inputs and the answers they are checked against do not
depend on the code under test; the one exception is the repository's
tests/data/mols26.json, used as shipped.  The same seed gives the same
files.

A workload spec is a JSON object {"workload", "seed", "ops"}; each op holds
the CLI argv and an "expect" entry that checks.py knows how to judge.
"""

from __future__ import annotations

import json
import os
import random
import shutil

PLAN_DIMS = 400
PLAN_DIM_LIMIT = 10 ** 8
# Dimensions the planner must always see, with pinned counts where the
# repository's acceptance criteria fix them (best, constructible).
PLAN_PINNED = {4: (5, 3), 9: None, 4732: (6, None), 6084: (8, None),
               720720: None, 735134400: None}
# Published lower bounds on the number of MOLS of a few small orders (the
# MOLS table of the Handbook of Combinatorial Designs); existence only.
CITED_MOLS = {"10": 2, "12": 5, "14": 3, "15": 4, "18": 3, "20": 4, "21": 5, "22": 3}


def _dump(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def factorize(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


# -- documents ----------------------------------------------------------------

def computational_basis(d: int) -> list[dict]:
    return [{"norm_sq": 1, "amps": [[x, 0]]} for x in range(d)]


def quadratic_phase_doc(p: int, rng: random.Random | None = None) -> dict:
    """The complete set in odd prime dimension p: the computational basis,
    then for each a the basis v_{a,b}(x) = w^(a x^2 + b x), b = 0..p-1.
    With rng the vectors inside each basis are shuffled, which leaves the
    work of verifying the set unchanged."""
    bases = [computational_basis(p)]
    for a in range(p):
        bases.append([{"norm_sq": p, "amps": [[x, (a * x * x + b * x) % p] for x in range(p)]}
                      for b in range(p)])
    if rng is not None:
        for basis in bases:
            rng.shuffle(basis)
    return {"dim": p, "root_order": p, "bases": bases}


def _gf(p: int, e: int):
    """Addition and multiplication tables of GF(p^e), e <= 3, elements as
    integers (base-p digits are polynomial coefficients)."""
    q = p ** e

    def digits(a):
        return [a // p ** i % p for i in range(e)]

    def poly_mul_mod(a, b, mod):
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(len(prod) - 1, e - 1, -1):
            c = prod[i]
            if c:
                for j in range(e + 1):
                    prod[i - e + j] = (prod[i - e + j] - c * mod[j]) % p
        return prod[:e]

    # A monic polynomial of degree <= 3 is irreducible iff it has no root.
    for low in range(q):
        mod = digits(low) + [1]
        if e == 1 or all(sum(c * x ** i for i, c in enumerate(mod)) % p for x in range(p)):
            break

    def to_int(coeffs):
        return sum(c * p ** i for i, c in enumerate(coeffs))

    add = [[to_int([(x + y) % p for x, y in zip(digits(a), digits(b))]) for b in range(q)]
           for a in range(q)]
    mul = [[to_int(poly_mul_mod(digits(a), digits(b), mod)) for b in range(q)] for a in range(q)]
    return add, mul


def net_set_doc(p: int, e: int) -> dict:
    """The complete set of q + 1 bases of C^(q^2), q = p^e, from the net of
    the q - 1 MOLS a*x + y over GF(q) and the q x q DFT (Wocjan-Beth)."""
    q = p ** e
    add, mul = _gf(p, e)
    blocks = [[[i * q + j for j in range(q)] for i in range(q)],
              [[i * q + j for i in range(q)] for j in range(q)]]
    for a in range(1, q):
        levels = [[] for _ in range(q)]
        for i in range(q):
            for j in range(q):
                levels[add[mul[a][i]][j]].append(i * q + j)
        blocks.append(levels)
    bases = [[{"norm_sq": q, "amps": [[pos, row * c % q] for c, pos in enumerate(support)]}
              for support in block for row in range(q)]
             for block in blocks]
    return {"dim": q * q, "root_order": q, "bases": bases}


def flip_one_exponent(doc: dict, rng: random.Random) -> dict:
    """Copy of doc with one amplitude exponent changed.  In a net set each
    vector shares its support with the q - 1 others built on the same
    incidence vector, so exactly q - 1 orthogonality violations follow."""
    out = json.loads(json.dumps(doc))
    m = out["root_order"]
    vec = rng.choice(rng.choice(out["bases"]))
    amp = rng.choice(vec["amps"])
    amp[1] = (amp[1] + rng.randrange(1, m)) % m
    return out


def standard_basis_twice(d: int) -> dict:
    return {"dim": d, "root_order": 1, "bases": [computational_basis(d), computational_basis(d)]}


# -- workloads ----------------------------------------------------------------

def build_square(root: str, work: str, seed: int) -> list[dict]:
    with open(os.path.join(os.path.dirname(__file__), "expected", "build_square_2.txt"),
              encoding="utf-8") as fh:
        square2 = fh.read()
    imports = os.path.join(root, "tests", "data")
    exact_ok = "verification (exact): ok\n"
    return [
        {"argv": ["mub", "build", "--square", "2"],
         "expect": {"kind": "text", "rc": 0, "stdout": square2, "stderr": ""}},
        {"argv": ["mub", "build", "--square", "16", "--json"],
         "expect": {"kind": "mub_doc", "rc": 0, "dim": 256, "k": 17, "root_order": 16,
                    "stderr": exact_ok}},
        {"argv": ["mub", "build", "--square", "26", "--imports", imports, "--json"],
         "expect": {"kind": "mub_doc", "rc": 0, "dim": 676, "k": 6, "root_order": 26,
                    "stderr": exact_ok}},
    ]


def verify_dense(root: str, work: str, seed: int) -> list[dict]:
    rng = random.Random(seed)
    both_ok = "verification (exact): ok\nverification (float): ok\noracle agreement: ok\n"
    paths = {}
    docs = {
        "qp17": quadratic_phase_doc(17, rng),
        "qp5": quadratic_phase_doc(5, rng),
        "qp7": quadratic_phase_doc(7, rng),
        "std4x2": standard_basis_twice(4),
    }
    net9 = net_set_doc(3, 2)
    docs["net9_flip_a"] = flip_one_exponent(net9, rng)
    docs["net9_flip_b"] = flip_one_exponent(net9, rng)
    for name, doc in docs.items():
        paths[name] = os.path.join(work, name + ".json")
        _dump(paths[name], doc)
    flipped = {"kind": "lines", "rc": 1,
               "stdout": ["d = 81, k = 10 bases",
                          "verification (exact): FAILED, 8 violations",
                          "verification (float): FAILED, 8 violations",
                          "oracle agreement: ok"]}
    return [
        {"argv": ["mub", "verify", paths["qp17"], "--both"],
         "expect": {"kind": "text", "rc": 0, "stdout": "d = 17, k = 18 bases\n" + both_ok,
                    "stderr": ""}},
        {"argv": ["mub", "tensor", paths["qp5"], paths["qp7"], "--both", "--json"],
         "expect": {"kind": "mub_doc", "rc": 0, "dim": 35, "k": 6, "root_order": 35,
                    "stderr": both_ok}},
        {"argv": ["mub", "verify", paths["net9_flip_a"], "--both"], "expect": flipped},
        {"argv": ["mub", "verify", paths["net9_flip_b"], "--both"], "expect": flipped},
        # Two copies of one basis are not unbiased: the answer is exit 1 from
        # both oracles.  mubkit currently exits 2 with NonIntegerTarget; that
        # is counted as a failed operation, not hidden.
        {"argv": ["mub", "verify", paths["std4x2"], "--both"],
         "expect": {"kind": "lines", "rc": 1,
                    "stdout": ["d = 4, k = 2 bases", "oracle agreement: ok"],
                    "known_defect": {"rc": 2, "stderr": "NonIntegerTarget"}}},
    ]


def plan_batch(root: str, work: str, seed: int) -> list[dict]:
    rng = random.Random(seed)
    imports = os.path.join(work, "imports")
    os.makedirs(imports, exist_ok=True)
    shutil.copyfile(os.path.join(root, "tests", "data", "mols26.json"),
                    os.path.join(imports, "mols26.json"))
    _dump(os.path.join(imports, "qp3.json"), quadratic_phase_doc(3))
    _dump(os.path.join(imports, "cited.json"), {"mols_cited_bounds": CITED_MOLS})
    dims = [rng.randrange(2, PLAN_DIM_LIMIT) for _ in range(PLAN_DIMS)] + list(PLAN_PINNED)
    ops = []
    for d in dims:
        expect = {"kind": "plan", "rc": 0, "stderr": "", "d": d,
                  "prime_power_reduction_count": min(p ** e for p, e in factorize(d)) + 1}
        pinned = PLAN_PINNED.get(d)
        if pinned is not None:
            expect["best_count"], expect["best_constructible_count"] = pinned
        ops.append({"argv": ["plan", str(d), "--imports", imports, "--json"], "expect": expect})
    return ops


WORKLOADS = {"build-square": build_square, "verify-dense": verify_dense, "plan-batch": plan_batch}


def write_spec(root: str, work: str, workload: str, seed: int) -> str:
    """Generate the workload's inputs under work and return the spec path."""
    os.makedirs(work, exist_ok=True)
    ops = WORKLOADS[workload](root, work, seed)
    path = os.path.join(work, "spec.json")
    _dump(path, {"workload": workload, "seed": seed, "ops": ops})
    return path
