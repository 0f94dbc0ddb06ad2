"""The documentation runs: the README's Library example and the doctests
in module docstrings, so an API change cannot leave them stale; and every
limit the README states holds the value the code gives it."""

from __future__ import annotations

import doctest
import importlib
import os
import pkgutil
import re

import mubkit
import mubkit.cyclotomic

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


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
