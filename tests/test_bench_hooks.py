"""The benchmark reaches the library through names it patches and checks
every answer against its own reference; a library change that breaks either
makes `bench/run.py` fail, so both are checked here on small inputs."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
# Modules of bench/ that run.py and workloads.py import by their bare names.
SIBLINGS = ("tracer", "reference")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    yield _load("run"), _load("workloads")
    for name in SIBLINGS:
        sys.modules.pop(name, None)


def test_every_patch_point_exists():
    tracer = _load("tracer")
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.PATCH_POINTS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_traced_workloads_pass_their_checks(bench):
    run, workloads = bench
    mix = {(kind, 8): 1 for kind in workloads.WordRequests.kinds}
    # Each workload with a counter of a call the library makes inside it.
    cases = [
        (workloads.ShiWalk(1, n=3), "shi.enumerate_regions.s"),
        (workloads.OracleScan(1, count_n=4, verify_n=4), "cycle_lemma.decompose.calls"),
        (workloads.WordRequests(1, mix), "core.parse_word.us"),
    ]
    for workload, counter in cases:
        runs, layers, _ = run.run_workload(workload, 0, trace=True)
        failures = [r.first_failure for r in runs if r.failed]
        assert failures == [], workload.name
        assert sum(r.attempted for r in runs) == 2 * len(workload.ops)
        assert layers[counter] > 0, workload.name


def test_oracle_scan_passes_at_its_benchmark_size(bench):
    # The workload's default sizes (count n=7, verify n=6), one untraced op.
    run, workloads = bench
    runs, _, _ = run.run_workload(workloads.OracleScan(1), 0, trace=False)
    assert [r.first_failure for r in runs if r.failed] == []
    assert sum(r.attempted for r in runs) == 1
