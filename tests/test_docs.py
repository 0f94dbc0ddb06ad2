"""The documentation runs: the README's command-line block, its Library
example and the doctests in module docstrings, so an API change cannot
leave them stale; and every limit the README states holds the value the
code gives it."""

from __future__ import annotations

import doctest
import importlib
import os
import pkgutil
import re
import shlex

import mubkit
import mubkit.cyclotomic
from mubkit.cli import main

from conftest import DATA_DIR

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), re.M | re.S)
    commands = [shlex.split(line, comments=True)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("mubkit ")]
    assert len(commands) >= 10
    monkeypatch.delenv("MUBKIT_IMPORTS", raising=False)
    monkeypatch.chdir(tmp_path)  # the block writes and reads files in the current directory
    for argv in commands:
        argv = [DATA_DIR if arg == "tests/data" else arg for arg in argv]
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_readme_library_example_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_cyclotomic_doctests_pass():
    result = doctest.testmod(mubkit.cyclotomic)
    assert result.attempted > 0 and result.failed == 0


def test_readme_limits_match_the_code():
    with open(README, encoding="utf-8") as fh:
        stated = re.findall(r"`(MAX_\w+)` =\s+(\d[\d,]*(?:\^\d+)?)", fh.read())
    modules = [importlib.import_module(f"mubkit.{info.name}")
               for info in pkgutil.iter_modules(mubkit.__path__) if info.name != "__main__"]
    for name, text in stated:
        base, _, exp = text.replace(",", "").partition("^")
        assert {getattr(mod, name) for mod in modules if hasattr(mod, name)} == \
            {int(base) ** int(exp or 1)}, name
    assert {"MAX_DOCUMENT_BYTES", "MAX_ROOT_ORDER", "MAX_VECTORS"} <= {n for n, _ in stated}
