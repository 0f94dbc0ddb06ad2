"""Each command loads only the modules it runs, and the package surface
resolves every exported name from its module on first use."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import mubkit
from mubkit.mub import export_mubs

from conftest import DATA_DIR, built_mubs
from reference import mubs_to_dict

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
ENV = {**os.environ, "PYTHONPATH": SRC}


def fresh(code: str) -> str:
    """stdout of code run by a fresh `python -S` that imports mubkit from src."""
    return subprocess.run([sys.executable, "-S", "-c", code], env=ENV,
                          capture_output=True, text=True, check=True).stdout


def modules_after(argv: list[str] | None) -> set[str]:
    """The mubkit modules a fresh process holds after importing the CLI
    and, given argv, running main(argv) with its output discarded."""
    run = "" if argv is None else (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert mubkit.cli.main({argv!r}) == 0\n")
    out = fresh("import sys, mubkit.cli\n" + run +
                "print(*(m for m in sys.modules if m.split('.')[0] == 'mubkit'))")
    return set(out.split())


HEAVY = {"mubkit.mub", "mubkit.cyclotomic", "mubkit.net", "mubkit.hadamard", "mubkit.galois"}


def test_importing_the_cli_loads_no_other_module():
    assert modules_after(None) == {"mubkit", "mubkit.cli"}


def test_plan_loads_neither_the_verifier_nor_the_constructions():
    assert modules_after(["plan", "16"]) == {
        "mubkit", "mubkit.cli", "mubkit.planner", "mubkit.arith"}
    assert not modules_after(["plan", "4732", "--imports", DATA_DIR]) & HEAVY


def test_mub_build_without_imports_loads_no_planner():
    loaded = modules_after(["mub", "build", "--square", "3"])
    assert "mubkit.hadamard" in loaded
    assert "mubkit.planner" not in loaded


def test_mub_verify_loads_neither_the_planner_nor_the_constructions(tmp_path):
    path = tmp_path / "s3.json"
    export_mubs(built_mubs(3), path)
    loaded = modules_after(["mub", "verify", str(path)])
    assert "mubkit.mub" in loaded
    assert not loaded & {"mubkit.planner", "mubkit.latin", "mubkit.net", "mubkit.hadamard",
                         "mubkit.galois"}


# -- package surface

def test_every_exported_name_is_its_defining_modules_object():
    for name in mubkit.__all__:
        obj = getattr(mubkit, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("mubkit."), name
        assert getattr(module, name) is obj, name
        assert vars(mubkit)[name] is obj, name  # resolved once, then a plain global


def test_dir_and_star_import_cover_all_exports():
    assert set(mubkit.__all__) <= set(dir(mubkit))
    # a fresh process, so that every name goes through __getattr__
    out = fresh("import sys, mubkit\n"
                "before = [m for m in sys.modules if m.startswith('mubkit.')]\n"
                "names = {}\n"
                "exec('from mubkit import *', names)\n"
                "print(before == [] and set(mubkit.__all__) <= set(names))")
    assert out == "True\n"


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="module 'mubkit' has no attribute 'no_such_name'"):
        mubkit.no_such_name


# -- error exits in a fresh process, where main has loaded nothing yet

def cold_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-S", "-m", "mubkit", *argv], env=ENV,
                          capture_output=True, text=True)


def tampered_qubit_set() -> dict:
    doc = mubs_to_dict(built_mubs(2))
    amp = doc["bases"][1][0]["amps"][1]
    amp[1] = (amp[1] + 1) % doc["root_order"]
    return doc


def test_a_failing_tensor_factor_exits_1_cold(tmp_path):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps(tampered_qubit_set()))
    export_mubs(built_mubs(2), good)
    proc = cold_cli("mub", "tensor", str(bad), str(good))
    assert proc.returncode == 1
    assert "verification failed" in proc.stdout


@pytest.mark.parametrize("broken", ["invalid JSON", "verification failed in exact mode"])
def test_a_broken_imports_directory_exits_2_cold(tmp_path, broken):
    # a table that fails to parse or to verify is bad input
    text = "{not json" if broken == "invalid JSON" else json.dumps(tampered_qubit_set())
    (tmp_path / "x.json").write_text(text)
    proc = cold_cli("plan", "16", "--imports", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and broken in proc.stderr
    assert "x.json" in proc.stderr
