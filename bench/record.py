"""Run the benchmark over several seeds and write one trajectory point.

    python3 bench/record.py --label seed

For each workload, RUNS = 10 untraced runs with seeds 1 to 10 and two traced
runs with seed 1, one after another, each in its own process.  Writes
``bench/BENCH_<label>.json``: the commit, Python version and core count;
per workload and end-to-end metric the ten values, their median, quartiles
and spread (interquartile range over median, as ``statistics.quantiles``
gives the quartiles); and the per-layer values of both traced runs, with
whether every ``.calls`` counter repeated exactly.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUNS = 10


def bench_run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed: {done.stderr.strip()}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]

    point = {"commit": commit(), "python": platform.python_version(),
             "nproc": os.cpu_count(), "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            runs.append(bench_run(workload, seed, seconds, 0))
            print(workload, seed, runs[-1], flush=True)
        traced = [bench_run(workload, 1, seconds, 1) for _ in range(2)]
        counts = [{k: v for k, v in t.items() if k.endswith(".calls")} for t in traced]
        point["workloads"][workload] = {
            "end_to_end": {name: summary([r[name] for r in runs]) for name in runs[0]},
            "per_layer": {name: [t[name] for t in traced] for name in traced[0]},
            "traced_counts_repeat": counts[0] == counts[1],
        }
        print(workload, json.dumps({k: round(v["spread"], 3) for k, v in
                                    point["workloads"][workload]["end_to_end"].items()}))
    path = os.path.join(BENCH, f"BENCH_{args.label}.json")
    with open(path, "w") as f:
        json.dump(point, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
