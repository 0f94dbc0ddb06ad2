"""The command line: every subcommand, the exit-code contract, and the
pinned human renderings that downstream scripts are allowed to rely on."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from mubkit import hadamard, latin, mub, net, serial
from mubkit.cli import build_parser, main
from mubkit.latin import (MolsSet, complete_mols_prime_power, cyclic_square, mols_from_dict,
                          mols_to_dict)
from mubkit.mub import mubs_from_dict, standard_basis, verify_mubs

from conftest import DATA_DIR, built_mubs
from mutations import mutated_documents
from reference import float_document, mubs_to_dict
from test_planner import qubit_triple

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")
# child interpreters do not see the test path pyproject.toml sets up
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))}


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


BUILD_SQUARE_2 = """\
d = 4, k = 3 bases, root order 2
basis 1:
  1/sqrt(2) * [ 1  1  0  0]
  1/sqrt(2) * [ 1 -1  0  0]
  1/sqrt(2) * [ 0  0  1  1]
  1/sqrt(2) * [ 0  0  1 -1]
basis 2:
  1/sqrt(2) * [ 1  0  1  0]
  1/sqrt(2) * [ 1  0 -1  0]
  1/sqrt(2) * [ 0  1  0  1]
  1/sqrt(2) * [ 0  1  0 -1]
basis 3:
  1/sqrt(2) * [ 1  0  0  1]
  1/sqrt(2) * [ 1  0  0 -1]
  1/sqrt(2) * [ 0  1  1  0]
  1/sqrt(2) * [ 0  1 -1  0]
verification (exact): ok
"""


def test_build_square_2_output_is_pinned(capsys):
    rc, out, err = run(capsys, "mub", "build", "--square", "2")
    assert rc == 0
    assert out == BUILD_SQUARE_2
    assert err == ""


def test_build_square_2_json_round_trips(capsys, tmp_path):
    rc, out, _ = run(capsys, "mub", "build", "--square", "2", "--json")
    assert rc == 0
    x = mubs_from_dict(json.loads(out))
    assert (x.dim, x.k) == (4, 3)

    path = tmp_path / "m4.json"
    rc, _, _ = run(capsys, "mub", "build", "--square", "2", "-o", str(path))
    assert rc == 0
    assert json.loads(path.read_text()) == json.loads(out)


def test_build_rejects_degenerate_squares(capsys):
    rc, out, err = run(capsys, "mub", "build", "--square", "1")
    assert rc == 2
    assert "--square must be >= 2" in err


# -- mols subcommands

def test_mols_gen_complete_set(capsys):
    rc, out, _ = run(capsys, "mols", "gen", "--order", "4")
    assert rc == 0
    assert out.startswith("order 4, 3 squares (complete set)\n")
    assert "square 3:" in out
    rc, out, _ = run(capsys, "mols", "gen", "--order", "3", "--json")
    assert rc == 0
    assert out == serial.dumps(mols_to_dict(complete_mols_prime_power(3)))
    assert mols_from_dict(json.loads(out)) == complete_mols_prime_power(3)


def test_mols_gen_requires_prime_power_or_cyclic(capsys):
    rc, out, err = run(capsys, "mols", "gen", "--order", "6")
    assert rc == 2
    assert err == "error: order 6 is not a prime power; use --cyclic or product\n"
    rc, out, _ = run(capsys, "mols", "gen", "--order", "6", "--cyclic")
    assert rc == 0
    assert out.startswith("order 6, 1 squares (cyclic)\n")
    rc, out, err = run(capsys, "mols", "gen", "--order", "1")
    assert rc == 2
    assert err == "error: order must be >= 2, got 1\n"


def test_mols_verify_and_product(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "ab.json"
    assert run(capsys, "mols", "gen", "--order", "3", "-o", str(a))[0] == 0
    rc, out, _ = run(capsys, "mols", "verify", str(a))
    assert rc == 0 and "ok" in out

    rc, _, _ = run(capsys, "mols", "product", str(a), str(a), "-o", str(b))
    assert rc == 0
    assert json.loads(b.read_text())["order"] == 9

    doc = json.loads(a.read_text())
    doc["squares"][0][0][0] = 1  # duplicate symbol in row 0
    a.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "mols", "verify", str(a))
    assert rc == 1
    assert "verification failed" in out


def test_mols_gen_and_product_refuse_an_order_over_the_limit(capsys, tmp_path):
    # no net holds a grid of side above 256, so none is built
    start = time.perf_counter()
    for argv in (["--order", "257", "--cyclic"], ["--order", "257"], ["--order", "10000000000"]):
        rc, out, err = run(capsys, "mols", "gen", *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: TooLarge: order ") and err.endswith(" exceeds 256\n")
    a = tmp_path / "a.json"
    assert run(capsys, "mols", "gen", "--order", "256", "--cyclic", "-o", str(a))[0] == 0
    rc, out, err = run(capsys, "mols", "product", str(a), str(a))
    assert (rc, out) == (2, "")
    assert err == "error: TooLarge: order 256*256 = 65536 exceeds 256\n"
    assert time.perf_counter() - start < 5


# -- net subcommands

def test_net_pipeline_round_trip(capsys, tmp_path):
    mols_path, net_path = tmp_path / "m.json", tmp_path / "n.json"
    run(capsys, "mols", "gen", "--order", "2", "--cyclic", "-o", str(mols_path))

    rc, out, _ = run(capsys, "net", "from-mols", str(mols_path), "--json")
    assert rc == 0
    assert out == ('{"blocks":[["1100","0011"],["1010","0101"],["1001","0110"]],'
                   '"k":3,"s":2}\n')

    run(capsys, "net", "from-mols", str(mols_path), "-o", str(net_path))
    rc, out, _ = run(capsys, "net", "verify", str(net_path))
    assert rc == 0
    assert "ok: (3,2)-net, 0 violations" in out

    rc, out, _ = run(capsys, "net", "to-mols", str(net_path))
    assert rc == 0
    assert "order 2, 1 squares (from net)" in out


def test_net_verify_reports_violations(capsys, tmp_path):
    net_path = tmp_path / "broken.json"
    net_path.write_text(json.dumps({
        "s": 2, "k": 2,
        "blocks": [["1100", "0110"], ["1010", "0101"]],
    }))
    rc, out, _ = run(capsys, "net", "verify", str(net_path))
    assert rc == 1
    assert "within-block" in out

    rc, out, err = run(capsys, "net", "to-mols", str(net_path))
    assert rc == 1


def test_net_verify_lists_at_most_50_violations(capsys, tmp_path):
    # four copies of the row block of a (4, 4)-net: each of the 6 block
    # pairs fails in all 16 of its pairs
    rows = ["".join("1" if p // 4 == i else "0" for p in range(16)) for i in range(4)]
    net_path = tmp_path / "copies.json"
    net_path.write_text(json.dumps({"s": 4, "k": 4, "blocks": [rows] * 4}))
    rc, out, _ = run(capsys, "net", "verify", str(net_path))
    lines = out.splitlines()
    assert rc == 1 and len(lines) == 52
    assert lines[0] == "verification failed: 96 violations"
    assert lines[1] == "  cross-block: block 0 vector 0 vs block 1 vector 0: dot 4, want 1"
    assert lines[50] == "  cross-block: block 1 vector 0 vs block 2 vector 1: dot 0, want 1"
    assert lines[51] == "  ... and 46 more"


def test_net_from_mols_rejects_a_grid_over_the_limit(capsys, tmp_path):
    # the loader refuses the order first; the net keeps its own bound
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"order": 257, "squares": []}))
    rc, out, err = run(capsys, "net", "from-mols", str(path))
    assert (rc, out, err) == (2, "", "error: TooLarge: order 257 exceeds 256\n")
    with pytest.raises(ValueError, match=r"TooLarge: 257\^2 points exceeds 65536"):
        net.net_from_mols(MolsSet(257, ()))


def test_net_files_over_the_order_limit_are_refused_before_any_block(capsys, tmp_path):
    # no block of the wrong length is named: the bound acts first
    path = tmp_path / "big.json"
    for doc in [{"s": 257, "k": 0, "blocks": []}, {"s": 257, "k": 1, "blocks": [["01"]]}]:
        path.write_text(json.dumps(doc))
        for command in ("verify", "to-mols"):
            rc, out, err = run(capsys, "net", command, str(path))
            assert (rc, out, err) == (2, "", "error: TooLarge: order 257 exceeds 256\n")
    path.write_text(json.dumps({"s": 256, "k": 0, "blocks": []}))
    assert run(capsys, "net", "verify", str(path)) == (0, "ok: (0,256)-net, 0 violations\n", "")


def test_mols_files_over_the_order_limit_are_refused_before_any_square(capsys, tmp_path):
    # a square of the wrong shape would be a parse error: the bound acts first
    path = tmp_path / "big.json"
    cyclic_257 = [[(i + j) % 257 for j in range(257)] for i in range(257)]
    for order, squares in [(1009, [[[0]]]), (257, [cyclic_257])]:
        path.write_text(json.dumps({"order": order, "squares": squares}))
        for argv in (["mols", "verify", str(path)], ["mols", "product", str(path), str(path)]):
            rc, out, err = run(capsys, *argv)
            assert (rc, out, err) == (2, "", f"error: TooLarge: order {order} exceeds 256\n")


def test_net_to_mols_needs_two_blocks(capsys, tmp_path):
    net_path = tmp_path / "thin.json"
    net_path.write_text(json.dumps({"s": 2, "k": 1, "blocks": [["1100", "0011"]]}))
    rc, _, err = run(capsys, "net", "to-mols", str(net_path))
    assert rc == 2
    assert "TooFewBlocks" in err


# -- mub subcommands

def test_mub_verify_modes(capsys, tmp_path):
    path = tmp_path / "m9.json"
    run(capsys, "mub", "build", "--square", "3", "-o", str(path))

    rc, out, _ = run(capsys, "mub", "verify", str(path))
    assert rc == 0
    assert out == "d = 9, k = 4 bases\nverification (exact): ok\n"

    rc, out, _ = run(capsys, "mub", "verify", str(path), "--both")
    assert rc == 0
    assert out.endswith("verification (exact): ok\n"
                        "verification (float): ok\noracle agreement: ok\n")

    rc, out, _ = run(capsys, "mub", "verify", str(path), "--float")
    assert rc == 0
    assert "verification (float): ok" in out

    rc, out, _ = run(capsys, "mub", "verify", str(path), "--jobs", "2")
    assert rc == 0


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_are_refused(capsys, tmp_path, jobs):
    path = tmp_path / "m4.json"
    run(capsys, "mub", "build", "--square", "2", "-o", str(path))
    for argv in (["verify", str(path)], ["build", "--square", "2"],
                 ["tensor", str(path), str(path)]):
        assert run(capsys, "mub", *argv, "--jobs", jobs) == (
            2, "", "error: --jobs must be >= 1\n"), argv


def test_mub_verify_failure_names_the_pairs(capsys, tmp_path):
    path = tmp_path / "bad.json"
    run(capsys, "mub", "build", "--square", "3", "-o", str(path))
    doc = json.loads(path.read_text())
    amp = doc["bases"][0][0]["amps"][1]
    amp[1] = (amp[1] + 1) % doc["root_order"]
    path.write_text(json.dumps(doc))

    rc, out, _ = run(capsys, "mub", "verify", str(path))
    assert rc == 1
    assert "verification (exact): FAILED, 2 violations" in out
    assert "orthogonality: basis 0 vector 0 vs basis 0 vector 1" in out

    rc, out, _ = run(capsys, "mub", "verify", str(path), "--both")
    assert rc == 1
    assert "oracle agreement: ok" in out  # both fail on the same pairs


def test_mub_verify_reports_a_repeated_basis(capsys, tmp_path):
    # nu*nv/d = 1/4: a verdict from both oracles (exit 1), not an input error
    std = [{"norm_sq": 1, "amps": [[p, 0]]} for p in range(4)]
    path = tmp_path / "std.json"
    path.write_text(json.dumps({"dim": 4, "root_order": 1, "bases": [std, std]}))
    rc, out, err = run(capsys, "mub", "verify", str(path), "--both")
    assert rc == 1 and not err
    assert "verification (exact): FAILED, 16 violations" in out
    assert out.endswith("oracle agreement: ok\n")


def test_mub_verify_lists_at_most_50_violations(capsys, tmp_path):
    std = [{"norm_sq": 1, "amps": [[p, 0]]} for p in range(8)]
    path = tmp_path / "std8.json"
    path.write_text(json.dumps({"dim": 8, "root_order": 1, "bases": [std, std]}))
    rc, out, _ = run(capsys, "mub", "verify", str(path))
    lines = out.splitlines()
    assert rc == 1 and len(lines) == 53
    assert lines[:3] == ["d = 8, k = 2 bases", "verification (exact): FAILED, 64 violations",
                         "  unbiasedness: basis 0 vector 0 vs basis 1 vector 0: |S|^2 != 1/8"]
    assert lines[51] == ("  unbiasedness: basis 0 vector 6 vs basis 1 vector 1:"
                         " |S|^2 = 0, want 1/8")
    assert lines[52] == "  ... and 14 more"


def test_mub_verify_float_only_files(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(float_document(mubs_to_dict(built_mubs(2)))))

    rc, out, _ = run(capsys, "mub", "verify", str(path))
    assert rc == 0
    assert "note: float amplitudes only; using the float oracle" in out
    assert "verification (float): ok" in out

    rc, _, err = run(capsys, "mub", "verify", str(path), "--both")
    assert rc == 2
    assert "--both needs exponent amplitudes" in err


def test_mub_verify_bounds_the_document_size(capsys, tmp_path, monkeypatch):
    # the complete s = 32 set (33 bases of 1024 vectors on 32 points) fits
    assert 33 * 1024 <= mub.MAX_VECTORS and 33 * 1024 * 32 <= mub.MAX_AMPLITUDES
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"dim": 1, "root_order": 1,
                               "bases": [[{}] * (mub.MAX_VECTORS + 1)]}))
    rc, out, err = run(capsys, "mub", "verify", str(big))
    assert (rc, out) == (2, "")
    assert f"more than {mub.MAX_VECTORS} vectors" in err
    # a document at both bounds loads; one vector or amplitude more does not
    path = tmp_path / "m4.json"
    run(capsys, "mub", "build", "--square", "2", "-o", str(path))  # 12 vectors, 24 amplitudes
    monkeypatch.setattr(mub, "MAX_VECTORS", 12)
    monkeypatch.setattr(mub, "MAX_AMPLITUDES", 24)
    assert run(capsys, "mub", "verify", str(path))[0] == 0
    for name, noun in [("MAX_VECTORS", "vectors"), ("MAX_AMPLITUDES", "amplitudes")]:
        limit = getattr(mub, name)
        monkeypatch.setattr(mub, name, limit - 1)
        rc, out, err = run(capsys, "mub", "verify", str(path))
        assert (rc, out) == (2, "")
        assert f"more than {limit - 1} {noun}" in err
        monkeypatch.setattr(mub, name, limit)


def test_json_reads_bound_the_file_size(capsys, tmp_path, monkeypatch):
    # mubs_to_json writes 10,063,785 bytes for the complete s = 32 set and
    # 43,517,864 for its float copy, which MAX_AMPLITUDES admits
    assert 43_517_864 <= serial.MAX_DOCUMENT_BYTES
    path = tmp_path / "m4.json"
    run(capsys, "mub", "build", "--square", "2", "-o", str(path))
    size = path.stat().st_size

    parsed = []

    def stub_loads(text):
        parsed.append(text)
        raise AssertionError("the parser saw the text")

    def check_bound():
        monkeypatch.setattr(serial, "MAX_DOCUMENT_BYTES", size)
        assert run(capsys, "mub", "verify", str(path))[0] == 0
        # the stub sits where read_json parses: a file within the bound reaches it
        with monkeypatch.context() as patch:
            patch.setattr(serial, "json", types.SimpleNamespace(loads=stub_loads))
            with pytest.raises(AssertionError, match="the parser saw the text"):
                run(capsys, "mub", "verify", str(path))
        assert len(parsed) == 1
        parsed.clear()
        # one byte over the bound is refused before the parser sees the text
        monkeypatch.setattr(serial, "MAX_DOCUMENT_BYTES", size - 1)
        with monkeypatch.context() as patch:
            patch.setattr(serial, "json", types.SimpleNamespace(loads=stub_loads))
            rc, out, err = run(capsys, "mub", "verify", str(path))
        assert parsed == []
        assert (rc, out) == (2, "")
        assert f"{path} holds more than {size - 1} bytes" in err

    check_bound()
    # a file that reports no size, as a pipe does, is read on up to the bound
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 10))
    check_bound()


def test_mub_tensor(capsys, tmp_path):
    a, b, out_path = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "t.json"
    run(capsys, "mub", "build", "--square", "2", "-o", str(a))
    run(capsys, "mub", "build", "--square", "3", "-o", str(b))
    rc, out, _ = run(capsys, "mub", "tensor", str(a), str(b), "-o", str(out_path))
    assert rc == 0
    assert "d = 36, k = 3 bases (tensor)" in out
    assert "verification (exact): ok" in out
    t = mubs_from_dict(json.loads(out_path.read_text()))
    assert (t.dim, t.k) == (36, 3)
    assert verify_mubs(t, mode="exact").ok


def test_mub_tensor_rejects_tampered_inputs(capsys, tmp_path):
    a = tmp_path / "a.json"
    run(capsys, "mub", "build", "--square", "3", "-o", str(a))
    doc = json.loads(a.read_text())
    amp = doc["bases"][1][0]["amps"][0]
    amp[1] = (amp[1] + 1) % doc["root_order"]
    a.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "mub", "tensor", str(a), str(a))
    assert rc == 1
    assert "verification failed" in out


def test_mub_tensor_rejects_a_product_root_order_over_the_limit(capsys, tmp_path):
    paths = []
    for dim, m in ((2, 4094), (3, 4095)):
        path = tmp_path / f"std{dim}.json"
        path.write_text(json.dumps({"dim": dim, "root_order": m, "bases": [
            [{"norm_sq": 1, "amps": [[x, 0]]} for x in range(dim)]]}))
        paths.append(str(path))
    rc, out, err = run(capsys, "mub", "tensor", *paths)
    assert rc == 2
    assert out == ""
    assert "TooLarge: root order 16764930" in err


@pytest.mark.parametrize("flags", [[], ["--json"], ["--both"]])
@pytest.mark.parametrize("command, dim", [(["build", "--square", "2"], 4),
                                          (["tensor", "A", "A"], 16)])
def test_a_set_that_fails_its_check_is_not_emitted(capsys, tmp_path, monkeypatch,
                                                   command, dim, flags):
    a, out_path = tmp_path / "a.json", tmp_path / "out.json"
    a.write_text(mub.mubs_to_json(built_mubs(2)))
    real = mub.verify_mubs

    def exact_fails_on_the_result(x, mode="exact", jobs=1):
        report = real(x, mode=mode, jobs=jobs)
        if x.dim != dim or mode != "exact":
            return report
        return report._replace(violations=(mub.MubViolation("norm", 0, 0, 0, 0, "forced"),))

    monkeypatch.setattr(mub, "verify_mubs", exact_fails_on_the_result)
    argv = [str(a) if arg == "A" else arg for arg in command]
    rc, out, err = run(capsys, "mub", *argv, "-o", str(out_path), *flags)
    report = ("verification (exact): FAILED, 1 violations\n"
              "  norm: basis 0 vector 0 vs basis 0 vector 0: forced\n")
    if "--both" in flags:
        report += "verification (float): ok\noracle agreement: DISAGREE\n"
    assert rc == 1 and not out_path.exists()
    assert (out, err) == (("", report) if "--json" in flags else (report, ""))


def test_mub_tensor_refuses_float_only_documents(capsys, tmp_path):
    a, f, out_path = tmp_path / "a.json", tmp_path / "f.json", tmp_path / "t.json"
    a.write_text(mub.mubs_to_json(built_mubs(2)))
    f.write_text(json.dumps(float_document(mubs_to_dict(built_mubs(2)))))
    for pair in [(f, a), (a, f), (f, f)]:
        rc, out, err = run(capsys, "mub", "tensor", *map(str, pair), "-o", str(out_path))
        assert (rc, out) == (2, "") and not out_path.exists()
        assert "ExactUnavailable: a factor has float-only amplitudes" in err


def test_float_is_a_flag_of_mub_verify_only(capsys, tmp_path):
    a = tmp_path / "a.json"
    a.write_text(mub.mubs_to_json(built_mubs(2)))
    for argv in [["mub", "build", "--square", "2", "--float"],
                 ["mub", "tensor", str(a), str(a), "--float"],
                 ["mub", "verify", str(a), "--float", "--both"]]:
        rc, out, err = run_catching_exit(capsys, argv)
        assert (rc, out) == (2, "")
        assert "--float" in err


def test_build_and_tensor_refuse_sets_the_loader_would_refuse(capsys, tmp_path, monkeypatch):
    # the complete s = 37 set has 38 * 37^2 = 52,022 vectors, the s = 127
    # one 128 * 127^2 = 2,064,512; one basis of 201 * 200 one-point vectors
    # has 40,200
    out_path = tmp_path / "out.json"
    start = time.perf_counter()
    rc, out, err = run(capsys, "mub", "build", "--square", "37", "-o", str(out_path))
    assert (rc, out) == (2, "") and not out_path.exists()
    assert f"TooLarge: 52022 vectors exceed the limit {mub.MAX_VECTORS}" in err
    # refused before any MOLS is built
    monkeypatch.setattr(latin, "best_mols", lambda *a, **k: pytest.fail("best_mols called"))
    rc, out, err = run(capsys, "mub", "build", "--square", "127", "-o", str(out_path))
    assert (rc, out) == (2, "") and not out_path.exists()
    assert f"TooLarge: 2064512 vectors exceed the limit {mub.MAX_VECTORS}" in err
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(mub.mubs_to_json(standard_basis(201)))
    b.write_text(mub.mubs_to_json(standard_basis(200)))
    rc, out, err = run(capsys, "mub", "tensor", str(a), str(b), "-o", str(out_path))
    assert (rc, out) == (2, "") and not out_path.exists()
    assert f"TooLarge: 40200 vectors exceed the limit {mub.MAX_VECTORS}" in err
    assert time.perf_counter() - start < 5


def test_mub_build_uses_imported_mols(capsys):
    rc, out, _ = run(capsys, "mub", "build", "--square", "26",
                     "--imports", DATA_DIR, "--json")
    assert rc == 0
    x = mubs_from_dict(json.loads(out))
    assert (x.dim, x.k) == (676, 6)  # w = 4 imported MOLS give 6 bases


def test_mub_build_reverifies_imported_mols(capsys, tmp_path):
    with open(os.path.join(DATA_DIR, "mols26.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    row = doc["squares"][1][0]
    row[0], row[1] = row[1], row[0]  # the row stays a permutation, two columns do not
    (tmp_path / "mols26.json").write_text(json.dumps(doc))
    rc, out, err = run(capsys, "mub", "build", "--square", "26", "--imports", str(tmp_path))
    assert rc == 2
    assert out == ""
    assert "mols26.json" in err


def test_mub_build_checks_each_object_once(capsys, monkeypatch):
    # the net is checked by build_mubs alone: net_from_mols trusts its
    # verified MOLS; the matrix's rows are checked once as one basis of
    # C^s inside verify_hadamard, and the set once, exactly, at the end
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            # verify_mubs: the set's dimension and the mode it runs in
            calls.append((name, 0, "") if name != "verify_mubs" else
                         (name, args[0].dim, kwargs.get("mode", "exact")))
            return fn(*args, **kwargs)
        return wrapper

    # build_mubs and verify_hadamard import the checks they call from their
    # modules when they run, so patching them there catches their calls
    for module, name in [(net, "verify_net"), (hadamard, "verify_hadamard"),
                         (mub, "verify_mubs")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rc, _, _ = run(capsys, "mub", "build", "--square", "4")
    assert rc == 0
    assert sorted(calls) == [("verify_hadamard", 0, ""), ("verify_mubs", 4, "exact"),
                             ("verify_mubs", 16, "exact"), ("verify_net", 0, "")]


def test_json_output_encodes_once_and_writes_what_it_prints(capsys, tmp_path, monkeypatch):
    # under -o FILE --json each command encodes its document once, then
    # writes it and prints it
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(mub, "mubs_to_json")
    counted(serial, "dumps")
    mols_path = tmp_path / "m.json"
    for argv, encoder in [(("mols", "gen", "--order", "4"), "dumps"),
                          (("net", "from-mols", str(mols_path)), "dumps"),
                          (("mub", "build", "--square", "4"), "mubs_to_json")]:
        out_path = tmp_path / "out.json"
        calls.clear()
        rc, out, _ = run(capsys, *argv, "-o", str(out_path), "--json")
        assert rc == 0 and calls == [encoder], argv
        assert out_path.read_bytes() == out.encode("utf-8") and out.endswith("}\n")
        if argv[0] == "mols":
            out_path.replace(mols_path)


# -- plan

PLAN_4 = """\
d = 4 = 2^2
best: 5 (cited)
constructible: 3
reduce-to-prime-powers: 5
best route: 4[prime power: 5]
constructible route: 4=2^2[constructive MOLS w=1: 3]
"""

PLAN_6084 = """\
d = 6084 = 2^2 x 3^2 x 13^2
best: 8 (cited-existence via Wilson)
constructible: 3
reduce-to-prime-powers: 5
best route: 6084=78^2[cited-existence MOLS w=6: 8]
constructible route: 6084=78^2[constructive MOLS w=1: 3]
"""

PLAN_4732_IMPORTED = """\
d = 4732 = 2^2 x 7 x 13^2
best: 6 (constructible)
constructible: 1
reduce-to-prime-powers: 5
best route: (7[prime power: 8] x 676=26^2[imported MOLS w=4: 6])
constructible route: 4732[trivial: 1]
"""


def test_plan_4_output_is_pinned(capsys):
    rc, out, _ = run(capsys, "plan", "4")
    assert rc == 0
    assert out == PLAN_4


def test_plan_6084_output_is_pinned(capsys):
    rc, out, _ = run(capsys, "plan", "6084")
    assert rc == 0
    assert out == PLAN_6084


def test_plan_names_wilson_only_for_the_wilson_width(capsys, tmp_path):
    (tmp_path / "bounds.json").write_text(json.dumps({"mols_cited_bounds": {"78": 10}}))
    rc, out, _ = run(capsys, "plan", "6084", "--imports", str(tmp_path))
    assert rc == 0
    assert "best: 12 (cited-existence)\n" in out
    assert "best route: 6084=78^2[cited-existence MOLS w=10: 12]\n" in out


def test_plan_4732_with_imports_flag(capsys):
    rc, out, _ = run(capsys, "plan", "4732", "--imports", DATA_DIR)
    assert rc == 0
    assert out == PLAN_4732_IMPORTED


def test_plan_honors_the_imports_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MUBKIT_IMPORTS", DATA_DIR)
    rc, out, _ = run(capsys, "plan", "4732")
    assert rc == 0
    assert out == PLAN_4732_IMPORTED
    monkeypatch.delenv("MUBKIT_IMPORTS")
    rc, out, _ = run(capsys, "plan", "4732")
    assert "best: 5 (cited)" in out


def test_plan_counts_only_exact_imported_sets_as_constructible(capsys, tmp_path):
    # 8 = 2 * 4: the qubit triple makes the split constructible with 3 bases
    triple = mubs_to_dict(qubit_triple())
    for doc, want in [(triple, 3), (float_document(triple), 1)]:
        (tmp_path / "qubits.json").write_text(json.dumps(doc))
        rc, out, _ = run(capsys, "plan", "8", "--imports", str(tmp_path), "--json")
        assert rc == 0
        assert json.loads(out)["best_constructible_count"] == want
    # 3: the computational basis and the three quadratic-phase bases
    # w^(a x^2 + b x) make an exact complete set, an imported leaf
    standard = [{"norm_sq": 1, "amps": [[x, 0]]} for x in range(3)]
    phase = [[{"norm_sq": 3, "amps": [[x, (a * x * x + b * x) % 3] for x in range(3)]}
              for b in range(3)] for a in range(3)]
    doc = {"dim": 3, "root_order": 3, "bases": [standard] + phase}
    (tmp_path / "complete3").mkdir()
    (tmp_path / "complete3" / "c3.json").write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "plan", "3", "--imports", str(tmp_path / "complete3"))
    assert rc == 0
    assert "constructible route: 3[imported: 4]\n" in out


def test_plan_json(capsys):
    rc, out, _ = run(capsys, "plan", "4", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["best_count"] == 5
    assert doc["best_constructible_count"] == 3
    assert doc["prime_power_reduction_count"] == 5


def test_plan_rejects_bad_dimensions(capsys):
    rc, _, err = run(capsys, "plan", "1")
    assert rc == 2
    assert "dimension" in err


# -- exit-code contract

def run_catching_exit(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_the_parser_is_built_once_and_reused(capsys):
    sequence = [
        ["plan", "x"],
        ["plan", "4732", "--imports", DATA_DIR],
        ["mub", "build", "--square", "2"],
    ]
    first = []
    for argv in sequence:
        build_parser.cache_clear()
        first.append(run_catching_exit(capsys, argv))
    assert [rc for rc, _, _ in first] == [2, 0, 0]
    assert "invalid int value" in first[0][2]
    assert first[2][1] == BUILD_SQUARE_2
    build_parser.cache_clear()
    again = [run_catching_exit(capsys, argv) for argv in sequence + sequence]
    assert again == first + first
    assert build_parser() is build_parser()


def test_missing_files_exit_2(capsys):
    rc, _, err = run(capsys, "mub", "verify", "/does/not/exist.json")
    assert rc == 2
    assert "cannot read" in err


def test_malformed_json_exits_2(capsys, tmp_path):
    # every command that reads a file; the last input is nested deeper than
    # the parser recurses, so json.loads raises RecursionError, not ValueError
    path = tmp_path / "x.json"
    commands = [["mub", "verify"], ["mub", "tensor", str(path)], ["mols", "verify"],
                ["mols", "product", str(path)], ["net", "from-mols"], ["net", "to-mols"],
                ["net", "verify"]]
    for data in [b"{not json", b"\xff\xfe{", b"[" * 100_000 + b"]" * 100_000]:
        path.write_bytes(data)
        for argv in [*(command + [str(path)] for command in commands),
                     ["plan", "12", "--imports", str(tmp_path)]]:
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (2, ""), argv
            assert "invalid JSON" in err
            assert str(path) in err


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("argv", [
    ["mols", "gen", "--order", "3"], ["mols", "product", "MOLS", "MOLS"],
    ["net", "from-mols", "MOLS"], ["net", "to-mols", "NET"], ["mub", "build", "--square", "2"],
    ["mub", "tensor", "MUB", "MUB"]], ids=lambda argv: "_".join(argv[:2]))
def test_an_unwritable_output_exits_2_and_prints_nothing(capsys, tmp_path, argv, flags):
    inputs = {"MOLS": tmp_path / "m.json", "NET": tmp_path / "n.json", "MUB": tmp_path / "x.json"}
    run(capsys, "mols", "gen", "--order", "3", "-o", str(inputs["MOLS"]))
    run(capsys, "net", "from-mols", str(inputs["MOLS"]), "-o", str(inputs["NET"]))
    run(capsys, "mub", "build", "--square", "2", "-o", str(inputs["MUB"]))
    argv = [str(inputs.get(a, a)) for a in argv]
    for dest in (tmp_path / "missing" / "out.json", tmp_path):  # no such folder; a folder
        rc, out, err = run(capsys, *argv, *flags, "-o", str(dest))
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: cannot write {dest}: ")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mubkit", "plan", "4"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert proc.stdout == PLAN_4


@pytest.mark.parametrize("argv", [["mols", "gen", "--order", "64"],
                                  ["mub", "build", "--square", "16"]])
def test_a_closed_stdout_exits_2_without_a_traceback(argv):
    # the reader takes one line and closes the pipe, as head -n 1 does,
    # while far more than a pipe buffer of output is still to come
    proc = subprocess.Popen([sys.executable, "-m", "mubkit", *argv], env=CHILD_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 2
    assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_checks_do_not_hide_in_asserts(capsys, tmp_path):
    # python -O strips assert statements; every check must survive that
    bad = tmp_path / "bad.json"
    run(capsys, "mub", "build", "--square", "3", "-o", str(bad))
    doc = json.loads(bad.read_text())
    amp = doc["bases"][1][2]["amps"][0]
    amp[1] = (amp[1] + 1) % doc["root_order"]
    bad.write_text(json.dumps(doc))
    for argv, want_rc in [(["mub", "build", "--square", "3"], 0),
                          (["mub", "verify", str(bad)], 1)]:
        plain, optimized = (subprocess.run([sys.executable, *flags, "-m", "mubkit", *argv],
                                           capture_output=True, text=True, env=CHILD_ENV)
                            for flags in ([], ["-O"]))
        assert plain.returncode == want_rc
        assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)


# -- loader fuzzing

MOLS_SEEDS = [mols_to_dict(complete_mols_prime_power(4)),
              mols_to_dict(MolsSet(3, (cyclic_square(3),)))]
NET_SEEDS = [net.net_to_dict(net.net_from_mols(complete_mols_prime_power(3))),
             net.net_to_dict(net.net_from_mols(MolsSet(2, (cyclic_square(2),))))]


@settings(max_examples=200, deadline=None)
@given(mutated_documents(MOLS_SEEDS, ["order", "squares", "x"]),
       mutated_documents(NET_SEEDS, ["s", "k", "blocks", "x"]))
def test_mutated_mols_and_net_documents_exit_0_1_or_2(mols_doc, net_doc):
    with tempfile.TemporaryDirectory() as tmp:
        imports = os.path.join(tmp, "imports")
        os.mkdir(imports)
        mols_path = os.path.join(imports, "mols.json")
        net_path = os.path.join(tmp, "net.json")
        for path, doc in [(mols_path, mols_doc), (net_path, net_doc)]:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for argv in [["mols", "verify", mols_path], ["net", "from-mols", mols_path],
                     ["plan", "16", "--imports", imports],
                     ["net", "verify", net_path], ["net", "to-mols", net_path]]:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
            assert rc in (0, 1, 2), argv


CITED_SEEDS = [{"mols_cited_bounds": {"4": 3, "10": 2, "16": 15}},
               {"mols_cited_bounds": {}}]
MUB_SEEDS = [mubs_to_dict(built_mubs(2)), mubs_to_dict(built_mubs(4)),
             mubs_to_dict(standard_basis(16))]
IMPORT_KEYS = ["order", "squares", "mols_cited_bounds", "4", "16", "dim", "root_order",
               "bases", "norm_sq", "amps", "amps_float", "x"]


@settings(max_examples=120, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(MOLS_SEEDS + CITED_SEEDS + MUB_SEEDS),
                          mutated_documents(MOLS_SEEDS, IMPORT_KEYS),
                          mutated_documents(CITED_SEEDS, IMPORT_KEYS),
                          mutated_documents(MUB_SEEDS, IMPORT_KEYS)),
                min_size=1, max_size=3))
def test_mutated_import_directories_exit_0_1_or_2(docs):
    # one directory mixes MOLS, cited-bound and MUB tables, intact or
    # edited; loading it is all or nothing, and no edit may end in a crash
    with tempfile.TemporaryDirectory() as imports:
        for n, doc in enumerate(docs):
            with open(os.path.join(imports, f"t{n}.json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for argv in [["plan", "16", "--imports", imports],
                     ["mub", "build", "--square", "4", "--imports", imports]]:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
            assert rc in (0, 1, 2), argv
