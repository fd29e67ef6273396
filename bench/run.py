"""Benchmark for parkfunc: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload shi-walk --seed 1 --seconds 20 --trace 0

Prints a readable table, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``, timed with no
tracing.  With ``--trace 1`` they are the per-layer ones: the run
alternates untraced passes with passes under the tracer (``tracer.py``), and
reports per-op counters of the traced passes plus the tracing overhead.  Every op's
output is checked against ``reference.py`` in both modes; the exit code is 1
if any op failed or disagreed.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

# A fresh interpreter times importing the library (through workloads.py)
# and building one workload's inputs, up to where the first op would start.
PROBE = (
    "import time; start = time.perf_counter(); import sys; sys.path.insert(0, {bench!r}); "
    "import workloads; workloads.WORKLOADS[{name!r}]({seed}); "
    "print(repr(time.perf_counter() - start))"
)


class Run:
    """Latencies, items and failures of a stretch of ops."""

    def __init__(self):
        self.latencies = []
        self.items = 0
        self.failed = 0
        self.first_failure = None

    @property
    def attempted(self):
        return len(self.latencies)

    def mean(self):
        return sum(self.latencies) / len(self.latencies)


def measure(workload, seconds, run):
    """Call and check whole passes over the workload's ops until `seconds` pass.

    Only the library call is timed.  A call that raises counts as failed, as
    does an output the check rejects; the first such op is named.
    """
    deadline = time.perf_counter() + seconds
    while True:
        for op in workload.ops:
            start = time.perf_counter()
            try:
                out = workload.call(op)
            except Exception as exc:  # a failing op is reported, not fatal
                elapsed = time.perf_counter() - start
                reason = f"raised {type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - start
                reason = workload.check(op, out)
            run.latencies.append(elapsed)
            run.items += workload.items(op)
            if reason is not None:
                run.failed += 1
                if run.first_failure is None:
                    run.first_failure = f"{workload.describe(op)}: {reason}"
        if time.perf_counter() >= deadline:
            return run


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def setup_seconds(name, seed):
    """Median of SETUP_PROBES fresh-process set-ups."""
    code = PROBE.format(bench=BENCH, name=name, seed=seed)
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def end_to_end(run, setup_s):
    return {
        "setup_s": setup_s,
        "items_per_s": run.items / sum(run.latencies),
        "op_p50_ms": statistics.median(run.latencies) * 1e3,
        "op_p99_ms": percentile(run.latencies, 99) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


# Each workload's own name for an end-to-end metric, printed in the readable
# table next to the generic name BENCHMARK.json uses.
ALIASES = {
    "shi-walk": {"items_per_s": "regions_per_s", "op_p50_ms": "verdict_s"},
    "oracle-scan": {"items_per_s": "words_per_s", "op_p50_ms": "verdict_s"},
    "word-requests": {"items_per_s": "requests_per_s", "op_p50_ms": "request_p50_ms",
                      "op_p99_ms": "request_p99_ms"},
}


def per_layer(tr, ops, overhead):
    """Per-op counters of the traced stretch; per-call means where named so."""

    def calls(name, parent=None):
        return tr.total(name, parent)[0] / ops

    def seconds(name, parent=None):
        return tr.total(name, parent)[1] / ops

    def self_seconds(name):
        _, total, child, _ = tr.total(name)
        return (total - child) / ops

    def per_call(name, scale, self_only=False):
        n, total, child, _ = tr.total(name)
        return (total - child if self_only else total) / n * scale if n else 0.0

    def hit_ratio(name):
        n, _, _, hits = tr.total(name)
        return hits / n if n else 0.0

    def per_second(name):
        _, total, _, hits = tr.total(name)
        return hits / total if total else 0.0

    sat = "feasibility.satisfiable"
    return {
        "shi.enumerate_regions.s": seconds("shi.enumerate_regions"),
        "shi.enumerate_regions.self_s": self_seconds("shi.enumerate_regions"),
        "shi.is_feasible.calls": calls("shi.is_feasible"),
        "shi.is_feasible.s": seconds("shi.is_feasible"),
        "shi.is_feasible.true_ratio": hit_ratio("shi.is_feasible"),
        "shi.is_bounded.calls": calls("shi.is_bounded"),
        "shi.is_bounded.s": seconds("shi.is_bounded"),
        "shi.is_bounded.true_ratio": hit_ratio("shi.is_bounded"),
        f"{sat}.calls": calls(sat),
        f"{sat}.is_feasible.calls": calls(sat, "shi.is_feasible"),
        f"{sat}.is_feasible.s": seconds(sat, "shi.is_feasible"),
        f"{sat}.is_bounded.calls": calls(sat, "shi.is_bounded"),
        f"{sat}.is_bounded.s": seconds(sat, "shi.is_bounded"),
        "enumeration.count_parking_functions.s":
            seconds("enumeration.count_parking_functions"),
        "enumeration.count_prime_parking_functions.s":
            seconds("enumeration.count_prime_parking_functions"),
        "enumeration.verify_bijection.s": seconds("enumeration.verify_bijection"),
        "enumeration.verify_proposition.s": seconds("enumeration.verify_proposition"),
        "core.is_parking_function.calls": calls("core.is_parking_function"),
        "core.is_parking_function.us": per_call("core.is_parking_function", 1e6),
        "core.is_prime_parking_function.calls": calls("core.is_prime_parking_function"),
        "core.is_prime_parking_function.us": per_call("core.is_prime_parking_function", 1e6),
        "core.simulate.calls": calls("core.simulate"),
        "core.simulate.us": per_call("core.simulate", 1e6),
        "core.simulate.success_ratio": hit_ratio("core.simulate"),
        "cycle_lemma.decompose.calls": calls("cycle_lemma.decompose"),
        "cycle_lemma.decompose.us": per_call("cycle_lemma.decompose", 1e6),
        "cycle_lemma.scores.us": per_call("cycle_lemma.scores", 1e6),
        "cycle_lemma.recompose.us": per_call("cycle_lemma.recompose", 1e6),
        "cycle_lemma.sample_primes.words_per_s": per_second("cycle_lemma.sample_primes"),
        "cli.run.calls": calls("cli.run"),
        "cli.run.self_ms": per_call("cli.run", 1e3, self_only=True),
        "cli.build_parser.ms": per_call("cli.build_parser", 1e3),
        "core.parse_word.us": per_call("core.parse_word", 1e6),
        "trace.overhead_ratio": overhead,
    }


PER_LAYER_UNITS = {
    ".calls": "count/op", ".s": "s/op", ".self_s": "s/op", ".us": "us",
    ".ms": "ms", ".self_ms": "ms", "_ratio": "ratio", ".words_per_s": "1/s",
}


def per_layer_unit(name):
    return next(unit for suffix, unit in PER_LAYER_UNITS.items() if name.endswith(suffix))


def run_workload(workload, seconds, trace):
    """Warm up and measure; returns (all runs, per-layer metrics or None, timed run)."""
    workload.warm()
    if not trace:
        run = measure(workload, seconds, Run())
        return [run], None, run

    # Untraced and traced passes alternate, so a drift in machine speed during
    # the run does not read as tracing overhead.
    untraced, traced, tr = Run(), Run(), tracer.Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        measure(workload, 0, untraced)
        with tr:
            measure(workload, 0, traced)
        if time.perf_counter() >= deadline:
            break
    overhead = traced.mean() / untraced.mean() - 1
    return [untraced, traced], per_layer(tr, traced.attempted, overhead), traced


def report(workload, runs, metrics, units, aliases):
    """The readable table on stdout, and the first failure on stderr."""
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    timed = runs[-1]
    print(f"workload {workload.name}  seed {workload.seed}  ops {timed.attempted}  "
          f"items {timed.items}  busy {sum(timed.latencies):.3f} s")
    for name, value in metrics.items():
        alias = aliases.get(name)
        shown = value / 1e3 if alias == "verdict_s" else value
        label = f"{name} ({alias})" if alias else name
        unit = "s" if alias == "verdict_s" else units[name]
        print(f"  {label:<48} {shown:>14.6g} {unit}")
    print(f"  {'fail_ratio':<48} {failed / attempted:>14.6g} ratio  ({failed}/{attempted} ops)")
    first = next((r.first_failure for r in runs if r.first_failure), None)
    if first:
        print(f"first failing input: {first}", file=sys.stderr)
    return attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["shi-walk", "oracle-scan", "word-requests"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot load the library: {exc}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    runs, layers, timed = run_workload(workload, args.seconds, args.trace)
    if args.trace:
        metrics = layers
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(timed, setup_s)
        units = dict(END_TO_END)
    attempted, failed = report(workload, runs, metrics, units,
                               {} if args.trace else ALIASES[args.workload])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
