import os
import subprocess
import sys
from pathlib import Path

import pytest

import parkfunc

SRC = str(Path(parkfunc.__file__).resolve().parent.parent)

# The fifteen-car worked example threaded through the whole library:
# a parking function whose decomposition has shift 10, together with the
# spot-by-spot outcomes of parking it (or its prime part) on each street.
WORD15 = (3, 13, 6, 3, 7, 3, 2, 1, 10, 11, 6, 7, 14, 10, 11)
SHIFT15 = 10
PRIME15 = (8, 4, 11, 8, 12, 8, 7, 6, 1, 2, 11, 12, 5, 1, 2)
CARS_STANDARD15 = (8, 7, 1, 4, 6, 3, 5, 11, 12, 9, 10, 14, 2, 13, 15)
CARS_PRIME15 = (9, 14, 10, 15, 2, 13, 8, 7, 1, 4, 6, 3, 5, 11, 12)


@pytest.fixture
def word15():
    return WORD15


@pytest.fixture
def prime15():
    return PRIME15


def python_env():
    """The environment of a fresh interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_python(*args):
    """Run a fresh interpreter, with this checkout of parkfunc importable."""
    return subprocess.run(
        [sys.executable, *args],
        env=python_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
