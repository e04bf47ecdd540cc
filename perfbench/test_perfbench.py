#!/usr/bin/env python3
"""Tests of the benchmark itself: statistics, guards, input determinism,
due-time latency under a stall, and a seconds-scale smoke of each workload.

    python3 perfbench/test_perfbench.py

The determinism, stall and smoke tests build the harness first (as run.py
does) and take about a minute.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

WORKLOADS = ("serve_mix", "oneshot_federation", "mc_fleet")


def layer_specs():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)["per_layer"]


class TailSelectionTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(10000), 99.9)
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(999), 98)
        self.assertEqual(run.tail_percentile(200), 95)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(40), 75)
        self.assertIsNone(run.tail_percentile(39))

    def test_fixed_tail_needs_ten_beyond(self):
        values = [float(i) for i in range(1000)]
        p50, tail = run.latency_summary("answer", values, 99)
        self.assertAlmostEqual(p50, 499.5)
        self.assertAlmostEqual(tail, 989.01)
        with self.assertRaises(run.BenchError):
            run.latency_summary("answer", values[:999], 99)

    def test_percentile_matches_inclusive_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        quartiles = statistics.quantiles(values, n=4, method="inclusive")
        self.assertAlmostEqual(run.percentile(values, 25), quartiles[0])
        self.assertAlmostEqual(run.percentile(values, 75), quartiles[2])


def ladder(rungs):
    """Synthetic ladder columns: rungs is a list of per-rung latency
    functions of the request's position in the rung (0..1)."""
    columns = {"rung": [], "kind": [], "due_ms": [], "latency_ms": [], "lag_ms": []}
    for r, latency in enumerate(rungs):
        for i in range(400):
            columns["rung"].append(r)
            columns["kind"].append(0)
            columns["due_ms"].append(1000.0 * r + 2.5 * i)
            columns["latency_ms"].append(latency(i / 400.0))
            columns["lag_ms"].append(0.01)
    return columns


class CapacityTest(unittest.TestCase):
    def test_every_rung_meets_the_limit(self):
        columns = ladder([lambda x: 1.0, lambda x: 1.5, lambda x: 2.0])
        _, capacity = run.rung_report(columns, [100, 200, 400], 99, 10.0)
        self.assertEqual(capacity, 400.0)

    def test_growing_backlog_stops_capacity(self):
        # Latency grows linearly through the third rung: a backlog, even
        # though its p99 would still meet the limit.
        columns = ladder([lambda x: 1.0, lambda x: 1.0, lambda x: 1.0 + 8.0 * x])
        rungs, capacity = run.rung_report(columns, [100, 200, 400], 99, 10.0)
        self.assertTrue(rungs[2]["growing"])
        self.assertFalse(rungs[1]["growing"])
        self.assertEqual(capacity, 200.0)

    def test_tail_over_limit_stops_capacity(self):
        columns = ladder([lambda x: 1.0, lambda x: 30.0 if x > 0.9 else 1.0,
                          lambda x: 1.0])
        _, capacity = run.rung_report(columns, [100, 200, 400], 99, 10.0)
        self.assertEqual(capacity, 100.0)


def fake_result(**overrides):
    result = {
        "samples": {"answer": [1.0] * 400, "check": [2.0] * 400},
        "setup_s": [0.5, 0.6, 0.7],
        "attempted": 800, "failed": 0, "ops_per_s": 10.0, "peak_rss_mb": 8.0,
        "layers": {}, "errors": [], "fail_reasons": {},
        "extra": {"negative_self_spans": 0,
                  "self_time": {"request": {"calls": 1, "total_ms": 2.0,
                                            "self_ms": 0.5},
                                "core.check": {"calls": 1, "total_ms": 1.5,
                                               "self_ms": 1.5}}},
    }
    result.update(overrides)
    return result


class GuardTest(unittest.TestCase):
    def test_clean_result_passes(self):
        metrics = run.end_to_end("mc_fleet", fake_result(), 20)
        self.assertEqual(metrics["setup_s"], (0.6, "s"))
        run.per_layer("mc_fleet", fake_result(), 20, layer_specs())

    def test_negative_duration_is_rejected(self):
        with self.assertRaises(run.BenchError):
            run.end_to_end("mc_fleet", fake_result(setup_s=[-0.1]), 20)
        with self.assertRaises(run.BenchError):
            run.end_to_end("mc_fleet", fake_result(
                samples={"answer": [float("nan")] * 400, "check": [2.0] * 400}), 20)

    def test_children_past_parent_are_rejected(self):
        extra = fake_result()["extra"]
        with self.assertRaises(run.BenchError):
            run.per_layer("mc_fleet", fake_result(extra=dict(extra, negative_self_spans=1)),
                          20, layer_specs())
        bad = dict(extra["self_time"])
        bad["core.check"] = {"calls": 1, "total_ms": 1.5, "self_ms": 2.5}
        with self.assertRaises(run.BenchError):
            run.per_layer("mc_fleet", fake_result(extra=dict(extra, self_time=bad)),
                          20, layer_specs())

    def test_negative_layer_time_is_rejected(self):
        with self.assertRaises(run.BenchError):
            run.per_layer("mc_fleet", fake_result(layers={"serve.socket_us": -3.0}),
                          20, layer_specs())

    def test_generator_lag_beyond_the_run_is_rejected(self):
        extra = {"reference_rung": 0,
                 "ladder": {"rung": [0, 0], "lag_ms": [1.0, 30000.0]}}
        with self.assertRaises(run.BenchError):
            run.generator_lag(extra, 20)
        self.assertAlmostEqual(run.generator_lag(extra, 60), 29700.01)


class HarnessTest(unittest.TestCase):
    """Runs the built harness directly (seconds-scale)."""

    @classmethod
    def setUpClass(cls):
        cls.out = run.build()
        cls.binary = os.path.join(cls.out, "psc_perfbench")
        cls.workdir = os.path.join(cls.out, "runs", "tests")
        os.makedirs(cls.workdir, exist_ok=True)

    def drive(self, *args):
        completed = subprocess.run(
            [self.binary] + list(args) + ["--pscd", os.path.join(self.out, "pscd")],
            cwd=self.workdir, capture_output=True, text=True, timeout=170)
        return completed

    def test_seed_determinism(self):
        for workload in WORKLOADS:
            first = self.drive("--gen", "--workload", workload, "--seed", "7").stdout
            again = self.drive("--gen", "--workload", workload, "--seed", "7").stdout
            holdout = self.drive("--gen", "--workload", workload, "--seed", "8").stdout
            self.assertTrue(first)
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, holdout, workload)

    def test_stall_raises_due_time_latency(self):
        completed = self.drive("--workload", "serve_mix", "--seed", "3", "--seconds", "2",
                               "--rung-seconds", "0.5", "--stall-ms", "100",
                               "--stall-at-s", "0.2")
        self.assertEqual(completed.returncode, 0, completed.stderr)
        result = json.loads(completed.stdout.splitlines()[-1])["result"]
        # due_ms counts from the start of the ladder; the stall covers
        # [200, 300) ms of the first rung.
        columns = result["extra"]["ladder"]
        stalled, calm = [], []
        for rung, due, latency in zip(columns["rung"], columns["due_ms"],
                                      columns["latency_ms"]):
            if rung == 0 and 200 <= due < 250:
                stalled.append((due, latency))
            elif rung == 0 and due >= 400:
                calm.append(latency)
        self.assertTrue(stalled and calm)
        # Due during the stall, sent after it: each waits out the rest of it.
        for due, latency in stalled:
            self.assertGreaterEqual(latency, 300 - due - 5.0)
        self.assertLess(statistics.median(calm), 20.0)

    def test_smoke_each_workload(self):
        specs = layer_specs()
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                completed = self.drive("--workload", workload, "--seed", "5",
                                       "--seconds", "3", "--trace", trace)
                self.assertEqual(completed.returncode, 0,
                                 workload + trace + completed.stderr[-2000:])
                result = json.loads(completed.stdout.splitlines()[-1])["result"]
                self.assertEqual(result["errors"], [])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertTrue(result["samples"]["answer"])
                if trace == "1":
                    metrics, _ = run.per_layer(workload, result, 3, specs)
                    self.assertGreater(metrics["parser.query_us"][0], 0)


if __name__ == "__main__":
    unittest.main()
