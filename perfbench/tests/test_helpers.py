"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench/tests

Covers the result-line schema check and the name grammar (run.py), the
spread statistic (steady.py), the consistency of BENCHMARK.json, and —
when perfbench has been built — the C++ self-test of the nearest-rank
percentile, the capacity-ladder decision and span self time.
"""

import copy
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402
import steady  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    ],
    "per_layer": [{"name": "opf.simplex_ms", "unit": "ms", "better": "lower"}],
}
GOOD = {
    "correct": True, "attempted": 10, "failed": 0,
    "metrics": {"setup_s": {"value": 1.5, "unit": "s"},
                "p50_ms": {"value": 0.41, "unit": "ms"}},
}


class ResultSchemaTest(unittest.TestCase):
    def test_well_formed_result_passes(self):
        self.assertEqual(run.check_result(GOOD, SPEC, trace=False), [])

    def test_trace_run_wants_the_per_layer_metrics(self):
        traced = dict(GOOD, metrics={"opf.simplex_ms": {"value": 0, "unit": "ms"}})
        self.assertEqual(run.check_result(traced, SPEC, trace=True), [])
        self.assertNotEqual(run.check_result(GOOD, SPEC, trace=True), [])

    def test_missing_and_extra_metrics_fail(self):
        bad = copy.deepcopy(GOOD)
        del bad["metrics"]["p50_ms"]
        bad["metrics"]["extra"] = {"value": 1, "unit": "s"}
        problems = run.check_result(bad, SPEC, trace=False)
        self.assertTrue(any("missing ['p50_ms']" in p for p in problems))
        self.assertTrue(any("'extra'" in p for p in problems))

    def test_wrong_unit_fails(self):
        bad = copy.deepcopy(GOOD)
        bad["metrics"]["p50_ms"]["unit"] = "us"
        self.assertNotEqual(run.check_result(bad, SPEC, trace=False), [])

    def test_non_finite_value_fails(self):
        bad = copy.deepcopy(GOOD)
        bad["metrics"]["p50_ms"]["value"] = float("nan")
        self.assertNotEqual(run.check_result(bad, SPEC, trace=False), [])

    def test_counts_must_be_whole_and_attempted_positive(self):
        for key, value in (("attempted", 0), ("attempted", 1.5),
                           ("failed", -1), ("failed", True)):
            bad = dict(GOOD, **{key: value})
            self.assertNotEqual(run.check_result(bad, SPEC, trace=False), [],
                                "%s=%r" % (key, value))

    def test_extra_top_level_key_fails(self):
        bad = dict(GOOD, note="x")
        self.assertNotEqual(run.check_result(bad, SPEC, trace=False), [])


class NameGrammarTest(unittest.TestCase):
    def test_grammar(self):
        for name in ("p50_ms", "serve.handle_line_us.detect", "0x", "a-b.c_d"):
            self.assertTrue(run.NAME_RE.match(name), name)
        for name in ("", ".leading", "_x", "has space", "slash/", "x" * 65):
            self.assertFalse(run.NAME_RE.match(name), name)

    def test_unit_grammar(self):
        for unit in ("ms", "1/s", "%", "count", "MB"):
            self.assertTrue(run.UNIT_RE.match(unit), unit)
        self.assertFalse(run.UNIT_RE.match("milli seconds"))


class BenchmarkSpecTest(unittest.TestCase):
    def test_spec_is_consistent(self):
        spec = run.load_spec()
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for name in names:
            self.assertTrue(run.NAME_RE.match(name), name)
        for w in spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])


class SpreadTest(unittest.TestCase):
    def test_spread_matches_statistics_quantiles(self):
        med, q1, q3, s = steady.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        self.assertEqual((q1, q3), (2.75, 8.25))
        self.assertAlmostEqual(s, 1.0)


class NativeSelfTest(unittest.TestCase):
    def test_cpp_helpers(self):
        binary = os.path.join(run.BUILD_DIR, "perfbench_selftest")
        if not os.path.exists(binary):
            self.skipTest("perfbench not built yet (run perfbench/run.py once)")
        proc = subprocess.run([binary], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
