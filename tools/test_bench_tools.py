#!/usr/bin/env python3
"""Unit tests for the bench gate tools (run by ctest as bench_tools_py_test).

Drives check_bench_regression.compare() and check_bench_json.check() on
literal documents -- no bench binaries required -- so the gate logic itself
is covered by tier-1 tests rather than only exercised in the nightly job.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bench_json
import check_bench_regression


def storms_doc(best=100.0, hit_rate=0.9, repair=0.8, telemetry=True):
    doc = {
        "bench": "failure_storms",
        "threads": [{"threads": 1, "scenarios_per_second": best / 2},
                    {"threads": 2, "scenarios_per_second": best}],
    }
    if telemetry:
        doc["telemetry"] = {"cache_hit_rate": hit_rate,
                            "repair_fraction": repair}
    return doc


class CompareTest(unittest.TestCase):
    def rows_by_name(self, rows):
        return {row["name"]: row for row in rows}

    def test_identical_docs_pass(self):
        rows = check_bench_regression.compare(storms_doc(), storms_doc(), 0.2)
        self.assertTrue(rows)
        self.assertTrue(all(row["ok"] for row in rows))

    def test_throughput_drop_beyond_tolerance_fails_and_names_metric(self):
        rows = check_bench_regression.compare(
            storms_doc(best=100.0), storms_doc(best=70.0), 0.2)
        row = self.rows_by_name(rows)["best_threads"]
        self.assertFalse(row["ok"])
        self.assertAlmostEqual(row["drop"], 0.30)
        line = check_bench_regression.format_row(row, 0.2)
        self.assertIn("best_threads", line)
        self.assertIn("30.0%", line)
        self.assertIn("REGRESSION", line)

    def test_throughput_drop_within_tolerance_passes(self):
        rows = check_bench_regression.compare(
            storms_doc(best=100.0), storms_doc(best=85.0), 0.2)
        self.assertTrue(self.rows_by_name(rows)["best_threads"]["ok"])

    def test_speedup_is_never_an_error(self):
        rows = check_bench_regression.compare(
            storms_doc(best=100.0, hit_rate=0.5), storms_doc(best=250.0), 0.2)
        self.assertTrue(all(row["ok"] for row in rows))

    def test_telemetry_hit_rate_decay_fails(self):
        rows = check_bench_regression.compare(
            storms_doc(hit_rate=0.9), storms_doc(hit_rate=0.4), 0.2)
        row = self.rows_by_name(rows)["telemetry.cache_hit_rate"]
        self.assertFalse(row["ok"])
        self.assertIn("telemetry.cache_hit_rate",
                      check_bench_regression.format_row(row, 0.2))

    def test_pre_telemetry_baseline_skips_telemetry_gates(self):
        rows = check_bench_regression.compare(
            storms_doc(telemetry=False), storms_doc(), 0.2)
        names = set(self.rows_by_name(rows))
        self.assertEqual(names, {"best_threads"})

    def test_telemetry_missing_from_current_fails(self):
        rows = check_bench_regression.compare(
            storms_doc(), storms_doc(telemetry=False), 0.2)
        row = self.rows_by_name(rows)["telemetry.cache_hit_rate"]
        self.assertFalse(row["ok"])
        self.assertIsNone(row["current"])
        self.assertIn("MISSING", check_bench_regression.format_row(row, 0.2))

    def test_backbone_scales_matched_by_name(self):
        def backbone(small, large):
            return {"bench": "backbone",
                    "scales": [
                        {"name": "isp-256", "scenarios_per_second": small},
                        {"name": "isp-1024", "scenarios_per_second": large}],
                    "telemetry": {"cache_hit_rate": 0.7,
                                  "repair_fraction": 0.9}}
        rows = check_bench_regression.compare(
            backbone(1000.0, 100.0), backbone(1000.0, 50.0), 0.2)
        by_name = self.rows_by_name(rows)
        self.assertTrue(by_name["isp-256"]["ok"])
        self.assertFalse(by_name["isp-1024"]["ok"])

    def test_mismatched_bench_types_rejected(self):
        with self.assertRaises(SystemExit):
            check_bench_regression.compare(
                storms_doc(), {"bench": "backbone", "scales": []}, 0.2)


class SchemaCheckTest(unittest.TestCase):
    def check_doc(self, doc):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(doc, f)
            path = f.name
        try:
            return check_bench_json.check(path)
        finally:
            os.unlink(path)

    def test_telemetry_keys_required_for_storms(self):
        problems = self.check_doc({"bench": "failure_storms"})
        missing = " ".join(problems)
        for key in ("telemetry", "cache_hit_rate", "repair_fraction",
                    "hops_per_decision", "forward_decisions",
                    "per_worker", "utilization", "telemetry_overhead_fraction",
                    "telemetry_bit_identical"):
            self.assertIn(f'"{key}"', missing)

    def test_traffic_sweep_requires_the_demand_quantum(self):
        problems = self.check_doc({"bench": "traffic_sweep"})
        self.assertIn('"demand_quantum_pps"', " ".join(problems))

    def backbone_doc(self):
        return {
            "bench": "backbone",
            "scales": [{"name": "isp-256", "batched_ms": 2.0,
                        "scenarios_per_second": 10.0,
                        "phase_ms": {"verify": 1.0}, "peak_rss_mb": 5.0}],
            "telemetry": {"cache_hit_rate": 0.5, "repair_fraction": 0.5,
                          "counters": {}, "phases": {},
                          "per_worker": [{"worker": 0, "utilization": 0.9}]},
            "peak_rss_mb": 6.0,
        }

    def test_nested_telemetry_keys_satisfy_backbone_schema(self):
        self.assertEqual(self.check_doc(self.backbone_doc()), [])

    def test_backbone_without_batched_ms_is_reported(self):
        doc = self.backbone_doc()
        del doc["scales"][0]["batched_ms"]
        self.assertEqual(self.check_doc(doc),
                         ['missing required key "batched_ms" (bench "backbone")'])


if __name__ == "__main__":
    unittest.main()
