#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the perfbench program under .bench_build/ (Release); later runs
only rebuild what changed. The program's stderr passes through; its last
stdout line is the result, checked here against BENCHMARK.json before it
is printed. Exit status: 0 when the outputs were correct and the result
line is well formed, non-zero otherwise (no result line when the build or
the run fails). See perfbench/README.md.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 175


def load_spec(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as f:
        return json.load(f)


def check_result(result, spec, trace):
    """Returns the problems of a result object against the spec (empty
    when it is well formed): exactly the four keys, whole counts, and every
    metric of the run's kind present with its unit, a finite number, and a
    name of the allowed grammar."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        problems.append("result keys %s, want %s" % (sorted(result), sorted(keys)))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or value != int(value) or value < 0:
            problems.append("%s is not a whole number" % key)
    if not problems and result["attempted"] < 1:
        problems.append("attempted is below 1")
    want = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    want_names = [m["name"] for m in want]
    if sorted(metrics) != sorted(want_names):
        missing = sorted(set(want_names) - set(metrics))
        extra = sorted(set(metrics) - set(want_names))
        problems.append("metrics missing %s, unexpected %s" % (missing, extra))
    for m in want:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if not NAME_RE.match(m["name"]):
            problems.append("bad metric name %r" % m["name"])
        if not isinstance(got, dict) or set(got) != {"value", "unit"}:
            problems.append("%s is not {value, unit}" % m["name"])
            continue
        value = got["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append("%s value is not a finite number" % m["name"])
        if got["unit"] != m["unit"] or not UNIT_RE.match(got["unit"]):
            problems.append("%s unit %r, want %r" % (m["name"], got["unit"], m["unit"]))
    return problems


def build():
    """Configures (once) and builds the program; build output goes to
    stderr so stdout carries only the result."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="damage one reference value; the run must fail")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("run.py: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", OUT_DIR,
           "--reference-dir", os.path.join(ROOT, "perfbench", "reference")]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: workload timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print("run.py: perfbench printed no result (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("run.py: the last line is not JSON", file=sys.stderr)
        return 1
    problems = check_result(result, spec, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    for p in problems:
        print("run.py: malformed result: %s" % p, file=sys.stderr)
    if problems:
        return 1
    return proc.returncode if proc.returncode != 0 or result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
