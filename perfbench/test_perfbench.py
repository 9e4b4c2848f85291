#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny scale.

Run from the root of a checkout:  python3 perfbench/test_perfbench.py
The first run builds the benchmark binary (see perfbench/run.py).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
with open(os.path.join(HERE, "layers.json")) as f:
    LAYERS = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
GATED = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# The end-to-end metrics every workload prints, gated or not, with units.
PRINTED = dict(GATED, p50_ms="ms", ops_per_s="1/s", setup_wall_s="s")
# ... and those only the serving workload prints.
SERVING_ONLY = {"p99_ms": "ms", "update_p50_ms": "ms"}
META = ["seed", "nproc", "omp_wait_policy", "workers", "omp_per_query",
        "clients", "writer", "writer_omp", "kernel_omp", "graph_v", "graph_e",
        "ops_checksum"]


def bench(workload, seed=1, seconds=1, trace=0, extra=(), cwd=ROOT,
          script=RUN):
    """Runs the benchmark; returns (exit status, stdout lines)."""
    cmd = [sys.executable, script, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def meta(lines):
    for line in lines:
        match = re.match(r"# \S+ seed=\d+ traced=\S+ meta (\{.*\})$", line)
        if match:
            return json.loads(match.group(1))
    raise AssertionError("no metadata line")


def printed_metric(lines, name, unit):
    """The value of an end-to-end line 'name = value unit', or None."""
    pattern = r"^# \S+ seed=\d+ traced=False %s = (\S+) %s(  \(not gated\))?$"
    for line in lines:
        match = re.match(pattern % (re.escape(name), re.escape(unit)), line)
        if match:
            return float(match.group(1))
    return None


class PerfbenchTest(unittest.TestCase):

    def check_result(self, line, declared):
        result = json.loads(line)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], declared[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result

    def test_every_end_to_end_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                status, lines = bench(workload)
                self.assertEqual(status, 0)
                result = self.check_result(lines[-1], GATED)
                for name in GATED:
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       name)
                serving = workload == "road_live"
                expected = dict(PRINTED)
                if serving:
                    expected.update(SERVING_ONLY)
                for name, unit in expected.items():
                    value = printed_metric(lines, name, unit)
                    self.assertIsNotNone(value, name)
                    self.assertGreater(value, 0, name)
                if not serving:
                    for name, unit in SERVING_ONLY.items():
                        self.assertIsNone(printed_metric(lines, name, unit),
                                          name)
                record_meta = meta(lines)
                for key in META:
                    self.assertNotEqual(record_meta.get(key, ""), "", key)
                self.assertEqual(record_meta["seed"], "1")

    def test_traced_run_prints_layers_self_time_and_overhead(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                status, lines = bench(workload, trace=1)
                self.assertEqual(status, 0)
                self.check_result(lines[-1], PER_LAYER)
                for name in GATED:
                    self.assertTrue(any(
                        l.startswith("# overhead %s %s:" % (workload, name))
                        for l in lines), name)
                spans = [l for l in lines if l.startswith("# span ")]
                self.assertTrue(any("algorithms." in l for l in spans))
                self.assertTrue(any("graph.build" in l for l in spans))
                # Every metric is measured where it should move something.
                for name, link in LAYERS.items():
                    if workload not in link["workloads"]:
                        continue
                    self.assertTrue(any(re.match(
                        r"# layer %s %s = [-0-9.e+]+ " % (workload,
                                                          re.escape(name)), l)
                        for l in lines), name)

    def test_wrong_answer_counts_as_failed_and_fails_the_command(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                status, lines = bench(workload, extra=["--corrupt"])
                self.assertNotEqual(status, 0)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_operation_list_follows_the_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                sums = [meta(bench(workload, seed=s, seconds=0.2)[1])
                        ["ops_checksum"] for s in (7, 7, 8)]
                self.assertEqual(sums[0], sums[1])
                self.assertNotEqual(sums[0], sums[2])

    def test_layer_links_name_printed_metrics_and_workloads(self):
        self.assertEqual(set(LAYERS), set(PER_LAYER))
        known = set(PRINTED) | set(SERVING_ONLY)
        for name, link in LAYERS.items():
            for moved in link["moves"]:
                self.assertIn(moved, known, name)
            for workload in link["workloads"]:
                self.assertIn(workload, WORKLOADS, name)

    def test_run_budget_covers_every_window(self):
        sys.path.insert(0, HERE)
        import run
        for seconds in (1, 30, 90):
            self.assertGreater(run.run_budget(seconds, 0), seconds)
            self.assertGreater(run.run_budget(seconds, 1), 2 * seconds)
        # A command at the declared run length ends within 180 s.
        self.assertLess(run.run_budget(SPEC["run_seconds"], 1), 180)

    def test_fails_without_the_library_sources(self):
        # Only BENCHMARK.json and perfbench/: the command must fail
        # without printing a result.
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            status, lines = bench(WORKLOADS[0], cwd=bare,
                                  script=os.path.join("perfbench", "run.py"))
            self.assertNotEqual(status, 0)
            self.assertFalse(any(l.startswith("{") for l in lines))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
