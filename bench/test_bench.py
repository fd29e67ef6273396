"""Self-test of the benchmark: its reference, its failure reporting, its tracer.

    python3 -m pytest -q bench/test_bench.py

A broken library must show up as a nonzero fail_ratio with the first failing
input named, and the traced counters must repeat exactly run to run.
"""

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import reference as ref
import run
import tracer
import workloads
from workloads import parkfunc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL_MIX = {("decompose", 8): 3, ("check", 8): 2, ("simulate-rotated", 8): 2,
             ("sample", 8): 1, ("strip", 64): 1}


@pytest.mark.parametrize("n", range(1, 6))
def test_reference_counts_match_closed_forms(n):
    assert len(ref.parking_words(n)) == ref.parking_count(n)
    if n > 1:
        assert len(ref.prime_words(n)) == ref.prime_count(n)


@pytest.mark.parametrize("n", range(1, 5))
def test_reference_parking_process_matches_sorted_criterion(n):
    for word in itertools.product(range(1, n + 1), repeat=n):
        assignment, _ = ref.park(word, ref.standard_street(n))
        assert (assignment is not None) == ref.is_parking(word), word


def test_generated_words_have_their_intended_kind():
    rng = workloads.random.Random(7)
    for n in (2, 8, 64, 512):
        assert ref.is_parking(workloads._parking_function(rng, n))
        prime = workloads._prime_word(rng, n)
        assert ref.is_prime(prime) and max(prime) <= n - 1


def _report(workload, runs, capsys):
    run.report(workload, runs, {}, {}, {})
    out, err = capsys.readouterr()
    ratio = next(line for line in out.splitlines() if "fail_ratio" in line)
    return float(ratio.split()[1]), err


def _shift_moved(decompose):
    """decompose with k moved to the next shift: b stays prime, the congruence breaks."""

    def wrong(word):
        right = decompose(word)
        return right._replace(k=right.k % (len(word) - 1) + 1)

    return wrong


def test_wrong_decompose_fails_and_names_the_request(monkeypatch, capsys):
    monkeypatch.setattr(parkfunc.cli, "decompose", _shift_moved(parkfunc.cli.decompose))
    workload = workloads.WordRequests(1, SMALL_MIX)
    ratio, err = _report(workload, [run.measure(workload, 0, run.Run())], capsys)
    assert ratio == pytest.approx(3 / 9)
    assert err.startswith("first failing input: parkfunc decompose --word ")
    assert "breaks the shift congruence" in err


def test_wrong_decompose_fails_the_oracle_sweep(monkeypatch, capsys):
    monkeypatch.setattr(parkfunc.enumeration, "decompose",
                        _shift_moved(parkfunc.enumeration.decompose))
    workload = workloads.OracleScan(1, count_n=4, verify_n=4)
    ratio, err = _report(workload, [run.measure(workload, 0, run.Run())], capsys)
    assert ratio == 1
    assert "count n=4, verify n=4: verify_bijection(4) returned False" in err


def _relabel(regions, bump):
    """Pak-Stanley labels recomputed with the given crossing rule.

    A region's label is (1, ..., 1) plus one per hyperplane separating it from
    the base chamber, added at the coordinate `bump(hyperplane)`.
    """
    n = regions[0].sign_vector.n
    base = parkfunc.shi.base_region(n).signs
    out = []
    for region in regions:
        label = [1] * n
        for hp, sign, base_sign in zip(parkfunc.shi.hyperplanes(n),
                                       region.sign_vector.signs, base):
            if sign != base_sign:
                label[bump(hp) - 1] += 1
        out.append(dataclasses.replace(region, label=tuple(label)))
    return out


def test_wrong_label_bump_fails_and_names_the_walk(monkeypatch, capsys):
    real = parkfunc.shi.enumerate_regions
    regions = real(3)
    # The relabeling reproduces the library's labels under the right rule, so
    # the only change below is the bump itself.
    assert _relabel(regions, lambda hp: hp.i if hp.k == 0 else hp.j) == regions
    monkeypatch.setattr(parkfunc.shi, "enumerate_regions",
                        lambda n, force=False: _relabel(real(n, force), lambda hp: hp.i))
    workload = workloads.ShiWalk(1, n=3)
    ratio, err = _report(workload, [run.measure(workload, 0, run.Run())], capsys)
    assert ratio == 1
    assert err.startswith("first failing input: enumerate_regions(3): labels are not")


def _traced_counts(workload):
    runs, layers, _ = run.run_workload(workload, 0, trace=True)
    assert all(r.failed == 0 for r in runs)
    return {name: value for name, value in layers.items() if name.endswith(".calls")}


def test_traced_shi_walk_counts_repeat_exactly():
    first = _traced_counts(workloads.ShiWalk(1))
    assert first["shi.is_feasible.calls"] == 897
    assert first["shi.is_bounded.calls"] == 125
    assert first["feasibility.satisfiable.calls"] == 1508
    assert _traced_counts(workloads.ShiWalk(2)) == first


def test_traced_request_counts_repeat_exactly():
    first = _traced_counts(workloads.WordRequests(3, SMALL_MIX))
    assert first["cli.run.calls"] == 1
    assert first["cycle_lemma.decompose.calls"] == (3 + 16) / 9
    assert _traced_counts(workloads.WordRequests(3, SMALL_MIX)) == first


def test_tracer_restores_the_library():
    before = parkfunc.shi.satisfiable
    with tracer.Tracer():
        assert parkfunc.shi.satisfiable is not before
    assert parkfunc.shi.satisfiable is before


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = run.per_layer(tracer.Tracer(), 1, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.per_layer_unit(name)) for name in layers]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shi-walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "parkfunc sources not found" in done.stderr
