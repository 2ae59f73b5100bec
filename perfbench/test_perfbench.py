#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

  python3 perfbench/test_perfbench.py

  * smoke mode of every workload prints every end-to-end metric of
    BENCHMARK.json, with its unit, and counts no failure;
  * a traced smoke pass prints every per-layer metric, and its trace passes
    scripts/check_telemetry.py (proper span nesting);
  * an injected wrong expectation is counted in `failed`.

Builds into $CARGO_TARGET_DIR (default .bench_build) like perfbench/run.py.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# predicate-serial and epidemic-parallel are runnable but not in
# BENCHMARK.json (README.md says why).
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]] + ["predicate-serial",
                                                                     "epidemic-parallel"]


def run(workload, trace, *extra):
    """One smoke pass; returns the parsed result line."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench/run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if completed.returncode != 0:
        raise AssertionError(f"{workload}: exit {completed.returncode}\n"
                             f"{completed.stderr[-3000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return result


def assert_metrics(test, result, declared):
    expected = {metric["name"]: metric["unit"] for metric in declared}
    printed = {name: value["unit"] for name, value in result["metrics"].items()}
    test.assertEqual(printed, expected)
    for name, value in result["metrics"].items():
        test.assertIsInstance(value["value"], (int, float), name)


def assert_spans_nest_in_parents(test, trace):
    """Every span lies within its parent's interval, across lanes too:
    check_telemetry.py checks nesting within one tid only, and session spans
    sit on another lane than the wire requests they parent."""
    spans = {event["args"]["span"]: event for event in trace["traceEvents"]
             if event["ph"] == "X"}
    slack_us = 0.002  # ts and dur are printed to 1 ns
    parented = 0
    for span in spans.values():
        parent = span["args"]["parent"]
        if parent < 0:
            continue
        parented += 1
        outer = spans[parent]
        test.assertGreaterEqual(span["ts"], outer["ts"] - slack_us,
                                f"{span['name']} starts before {outer['name']}")
        test.assertLessEqual(span["ts"] + span["dur"],
                             outer["ts"] + outer["dur"] + slack_us,
                             f"{span['name']} ends after {outer['name']}")
    cross_lane = [span for span in spans.values() if span["name"].startswith("wire.")
                  and span["args"]["parent"] >= 0
                  and spans[span["args"]["parent"]]["tid"] != span["tid"]]
    test.assertGreater(parented, 0)
    test.assertGreater(len(cross_lane), 0, "no wire request parented by a session span")


class SmokeTest(unittest.TestCase):
    def test_every_end_to_end_metric_prints_on_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, 0)
                assert_metrics(self, result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]["value"], 0,
                                       metric["name"])

    def test_traced_pass_prints_every_layer_and_a_nested_trace(self):
        result = run("service-mix", 1)
        assert_metrics(self, result, SPEC["per_layer"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["adaptive.switches"]["value"], 2)
        build = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
        traces = (build if build.is_absolute() else ROOT / build) / "perfbench/traces"
        trace = traces / "service-mix-7.trace.json"
        check = subprocess.run(
            [sys.executable, str(ROOT / "scripts/check_telemetry.py"), str(trace),
             str(traces / "service-mix-7.prom")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(check.returncode, 0, check.stdout)
        assert_spans_nest_in_parents(self, json.loads(trace.read_text()))

    def test_injected_wrong_expectation_counts_as_failed(self):
        for workload in ("epidemic-serial", "service-mix"):
            with self.subTest(workload=workload):
                result = run(workload, 0, "--inject-wrong")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
