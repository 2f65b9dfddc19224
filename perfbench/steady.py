#!/usr/bin/env python3
"""Steadiness check: repeats workloads and reports each metric's spread.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--trace 0|1]

Runs perfbench/run.py --runs times per workload, seed first-seed, +1, ...,
and prints for every metric the median, the quartiles (Python's
statistics.quantiles, n=4), the spread (q3 - q1) / median, and the bound
from BENCHMARK.json. A spread under a third of the bound is steady; one
over the bound fails (setup_s excepted: its bound guards the median, not
the spread). Raw results go to .bench_out/steady-<workload>.json. Exit
status is non-zero when a run failed or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (shares ROOT and the spec loader)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv):
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    ok = True
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed, proc.returncode))
                ok = False
                continue
            results.append(json.loads(lines[-1]))
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (m["name"], results[-1]["metrics"][m["name"]]["value"])
                for m in metrics)), flush=True)
        with open(os.path.join(run.OUT_DIR, "steady-%s.json" % workload), "w") as f:
            json.dump(results, f)
        if len(results) < 2:
            continue
        print("%-14s %-32s %12s %12s %12s %8s %6s" %
              ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3, s = spread(values)
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "steady" if s < bound / 3 else "ok" if s <= bound else "WIDE"
                if verdict == "WIDE" and m["name"] != "setup_s":
                    ok = False
            print("%-14s %-32s %12.6g %12.6g %12.6g %8.4f %6s %s" %
                  (workload, m["name"], med, q1, q3, s,
                   "" if bound is None else bound, verdict), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
