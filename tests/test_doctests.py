"""The README's library quick start and every module's doctests run as written."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import parkfunc

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(
    f"parkfunc.{info.name}" for info in pkgutil.iter_modules(parkfunc.__path__)
) + ["parkfunc"]


def test_readme_quick_start():
    # The closing fence follows the last output line, so the block is cut
    # out first: doctest would read the fence as part of the expected output.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    test = doctest.DocTestParser().get_doctest(blocks[0], {}, "README", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    results = runner.summarize(verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    results = doctest.testmod(importlib.import_module(name), report=False)
    assert results.failed == 0
