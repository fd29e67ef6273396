"""The benchmark's tracer wraps library functions where their callers look
them up; every name it patches must exist, or `bench/run.py --trace 1` fails
on every workload."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_patch_point_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.PATCH_POINTS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
