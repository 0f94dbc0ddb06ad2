"""Known-answer checks on what each CLI operation returned.

judge() returns "ok", "known-defect" (the op failed in the way a recorded
defect predicts; it still counts as failed) or "wrong: <reason>".  Emitted
MUB documents are re-checked on a seeded sample of vector pairs with plain
float arithmetic, independent of mubkit's two oracles.
"""

from __future__ import annotations

import cmath
import json
import random

TOL = 1e-9
SAMPLE_PAIRS = 200


def _has_lines(text: str, wanted: list[str]) -> bool:
    """Every wanted line occurs in text, in order."""
    lines = iter(text.splitlines())
    return all(any(line == w for line in lines) for w in wanted)


def _vector(vec: dict, m: int) -> dict[int, complex]:
    scale = vec["norm_sq"] ** -0.5
    return {pos: cmath.exp(2j * cmath.pi * e / m) * scale for pos, e in vec["amps"]}


def _inner(u: dict[int, complex], v: dict[int, complex]) -> complex:
    return sum((a * v[p].conjugate() for p, a in u.items() if p in v), 0j)


def sample_check(doc: dict, rng: random.Random) -> str | None:
    """Norms and a sample of within- and cross-basis inner products; within
    a basis the partner shares support with the first vector when it can."""
    d, m, bases = doc["dim"], doc["root_order"], doc["bases"]
    for b, basis in enumerate(bases):
        if len(basis) != d:
            return f"basis {b} has {len(basis)} vectors"
        for v in basis:
            if len(v["amps"]) != v["norm_sq"]:
                return f"basis {b}: {len(v['amps'])} amplitudes with norm_sq {v['norm_sq']}"
    by_pos: dict[int, dict[int, list[int]]] = {}  # basis -> position -> vectors
    for _ in range(SAMPLE_PAIRS):
        b = rng.randrange(len(bases))
        i = rng.randrange(d)
        u = _vector(bases[b][i], m)
        if abs(abs(_inner(u, u)) - 1.0) >= TOL:
            return f"basis {b} vector {i} is not normalised"
        if len(bases) > 1 and rng.random() < 0.5:
            c = rng.choice([c for c in range(len(bases)) if c != b])
            j = rng.randrange(d)
            got = abs(_inner(u, _vector(bases[c][j], m))) ** 2
            if abs(got - 1.0 / d) >= TOL:
                return f"basis {b} vector {i} vs basis {c} vector {j}: |<u,v>|^2 = {got}"
        else:
            if b not in by_pos:
                by_pos[b] = {}
                for j, v in enumerate(bases[b]):
                    for p, _ in v["amps"]:
                        by_pos[b].setdefault(p, []).append(j)
            near = sorted({j for p in u for j in by_pos[b][p] if j != i})
            j = rng.choice(near) if near else (i + 1) % d
            got = abs(_inner(u, _vector(bases[b][j], m))) ** 2
            if got >= TOL:
                return f"basis {b} vectors {i} and {j} are not orthogonal: {got}"
    return None


def _mub_doc(expect: dict, out: str, rng: random.Random) -> str | None:
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    for key in ("dim", "root_order"):
        if doc.get(key) != expect[key]:
            return f"{key} {doc.get(key)}, want {expect[key]}"
    if len(doc.get("bases", ())) != expect["k"]:
        return f"k = {len(doc.get('bases', ()))}, want {expect['k']}"
    return sample_check(doc, rng)


def _plan(expect: dict, out: str) -> str | None:
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if doc.get("d") != expect["d"]:
        return f"d = {doc.get('d')}, want {expect['d']}"
    best, con = doc.get("best_count"), doc.get("best_constructible_count")
    if not (isinstance(best, int) and isinstance(con, int) and best >= con >= 1):
        return f"want best >= constructible >= 1, got {best}, {con}"
    for key in ("prime_power_reduction_count", "best_count", "best_constructible_count"):
        want = expect.get(key)
        if want is not None and doc.get(key) != want:
            return f"{key} = {doc.get(key)}, want {want}"
    return None


def judge(expect: dict, rc, out: str, err: str, rng: random.Random) -> str:
    kind = expect["kind"]
    problem = None
    if rc != expect["rc"]:
        problem = f"exit {rc}, want {expect['rc']}"
    elif kind == "text":
        if out != expect["stdout"] or err != expect["stderr"]:
            problem = "output differs from the pinned bytes"
    elif kind == "lines":
        if not _has_lines(out, expect["stdout"]):
            problem = "expected report lines missing"
    elif err != expect.get("stderr", err):
        problem = f"stderr {err!r}"
    elif kind == "mub_doc":
        problem = _mub_doc(expect, out, rng)
    elif kind == "plan":
        problem = _plan(expect, out)
    else:
        problem = f"unknown expectation {kind!r}"
    if problem is None:
        return "ok"
    defect = expect.get("known_defect")
    if defect is not None and rc == defect["rc"] and defect["stderr"] in err:
        return "known-defect"
    return "wrong: " + problem
