"""The documentation runs: the README's Library example and the doctests
in module docstrings, so an API change cannot leave them stale."""

from __future__ import annotations

import doctest
import os
import re

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
