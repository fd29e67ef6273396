"""Every script in demos/ runs to completion against this checkout."""

from pathlib import Path

import pytest

from conftest import run_python

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr
    assert result.stdout
