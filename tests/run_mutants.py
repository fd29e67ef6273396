"""Run the mutant catalogue of ``tests/mutants.py``; pytest does not collect this file.

    python tests/run_mutants.py

For each mutant, ``src/`` is copied into a temporary directory and the
mutant's old text is replaced there; ``src/`` itself is never written.  A
child interpreter must first import ``parkfunc`` from the copy.  The
mutant's node ids then run under pytest, from the repo root, with
PYTHONPATH pointing at the copy.  The mutant is caught when pytest reports
a failed test (exit 1); a pass survives it, and any other exit (a missing
node id, a collection error) is an error.  A child that runs past
``TIMEOUT`` seconds, as a mutant that makes a loop endless would, is killed
and its row reads ``timeout``, not caught.  Before the mutants, the same
node ids must pass on an unmutated copy, so that a failure is the
mutant's.  Prints one row per mutant and exits 1 unless every mutant is
caught.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS, REPO

TIMEOUT = 300  # per pytest child; far above the slowest row


def _pytest(copy, nodes):
    """Run ``nodes`` against the parkfunc in ``copy``; pytest's exit code, or None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    found = subprocess.run(
        [sys.executable, "-c", "import parkfunc; print(parkfunc.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(found).is_relative_to(copy):
        raise SystemExit(f"the child imported parkfunc from {found}, not from {copy}")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *nodes],
            cwd=REPO, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def _run(nodes, mutant=None):
    """Copy ``src/``, apply ``mutant`` if one is given, and run ``nodes`` on the copy."""
    with tempfile.TemporaryDirectory(prefix="parkfunc-mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(REPO / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = copy / "parkfunc" / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.id}: its old text does not occur exactly once")
            path.write_text(text.replace(mutant.old, mutant.new))
        return _pytest(copy, nodes)


def main():
    start = time.perf_counter()
    if _run(sorted({node for mutant in MUTANTS for node in mutant.tests})) != 0:
        raise SystemExit("the catalogue's tests do not all pass on an unmutated copy")
    width = max(len(mutant.id) for mutant in MUTANTS)
    print(f"{'mutant':<{width}}  {'file':<14}  result    seconds")
    survived = 0
    for mutant in MUTANTS:
        began = time.perf_counter()
        code = _run(mutant.tests, mutant)
        result = {0: "SURVIVED", 1: "caught", None: "timeout"}.get(code, f"error {code}")
        survived += code != 1
        print(f"{mutant.id:<{width}}  {mutant.file:<14}  {result:<8}  {time.perf_counter() - began:7.1f}")
    print(f"{survived} not caught; {time.perf_counter() - start:.1f} s in all")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
