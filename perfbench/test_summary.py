#!/usr/bin/env python3
"""Self-tests of the benchmark's summary math and output schema.

    python3 perfbench/test_summary.py
"""

import json
import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import summary  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def synthetic_raw(steps=200, traced=False):
    step_s = [0.001 * (1 + i % 10) for i in range(steps)]
    return {
        "steps": steps,
        "bytes_per_step": 1_000_000,
        "vmakespan_s": 1.5,
        "peak_rss_bytes": 8 * 2**20,
        "setup_s": [0.3, 0.1, 0.2],
        "step_s": step_s,
        "interval_s": step_s,
        "traced": [i % 2 for i in range(steps)] if traced else [0] * steps,
        "smart_call_s": [0.004, 0.006, 0.005],
        "baseline_call_s": [0.002, 0.002, 0.003],
        "samples": {"core.run_s": [0.002] * steps, "core.analysis_s": [0.002] * steps,
                    "sim.step_s": [0.001] * steps},
        "counters": {
            "runstats.reduction_seconds": 0.4,
            "runstats.elements_processed": 4e6,
            "runstats.worker_skew": 1.25,
            "common.pool_hits": 30.0,
            "common.pool_misses": 10.0,
            "analytics.flops_per_step": 1e9,
        },
    }


class SummaryMath(unittest.TestCase):
    def test_median(self):
        self.assertEqual(summary.median([3, 1, 2]), 2)
        self.assertEqual(summary.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            summary.median([])

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(summary.percentile(values, 0.9), 90)
        self.assertEqual(summary.percentile(values, 0.5), 50)
        self.assertEqual(summary.percentile(values, 1.0), 100)
        self.assertEqual(summary.percentile([7], 0.9), 7)
        with self.assertRaises(ValueError):
            summary.percentile(values, 0.0)

    def test_percentile_rule_needs_ten_samples_beyond(self):
        self.assertEqual(summary.samples_beyond(100, 0.9), 10)
        self.assertEqual(summary.samples_beyond(99, 0.9), 9)
        summary.require_percentile(100, 0.9)
        with self.assertRaises(ValueError):
            summary.require_percentile(99, 0.9)
        with self.assertRaises(ValueError):
            summary.end_to_end(synthetic_raw(steps=99))

    def test_quartile_spread(self):
        # statistics.quantiles([1..9], n=4) -> 2.5, 5, 7.5
        self.assertAlmostEqual(summary.quartile_spread(list(range(1, 10))), 1.0)
        self.assertEqual(summary.quartile_spread([5.0] * 10), 0.0)

    def test_paired_ratio_keeps_its_bases(self):
        # median of the per-pair ratios 2, 3 and 5/3, not 5 ms / 2 ms
        r = summary.paired_ratio([0.004, 0.006, 0.005], [0.002, 0.002, 0.003])
        self.assertAlmostEqual(r["value"], 2.0)
        self.assertAlmostEqual(r["numerator"], 0.005)
        self.assertAlmostEqual(r["denominator"], 0.002)
        self.assertEqual(r["pairs"], 3)
        with self.assertRaises(ValueError):
            summary.paired_ratio([1.0], [0.0])
        with self.assertRaises(ValueError):
            summary.paired_ratio([1.0, 2.0], [1.0])

    def test_self_times(self):
        lanes = [{"rank": 0, "role": "rank", "spans": [
            ["step", 0.0, 10.0, -1, 1],
            ["sim.step", 0.0, 3.0, 0, 1],
            ["core.run", 3.0, 8.0, 0, 1],
            ["step", 20.0, 30.0, -1, -1],       # outside the timed loop
        ]}, {"rank": 1, "role": "rank", "spans": [["step", 0.0, 99.0, -1, 1]]}]
        self.assertEqual(summary.self_times(lanes),
                         {"step": 2.0, "sim.step": 3.0, "core.run": 5.0})

    def test_end_to_end(self):
        metrics, bases = summary.end_to_end(synthetic_raw())
        self.assertEqual(set(metrics), set(summary.END_TO_END))
        self.assertAlmostEqual(metrics["setup_s"], 0.2)
        self.assertAlmostEqual(metrics["step_ms_p50"], 5.5)
        self.assertAlmostEqual(metrics["step_ms_p90"], 9.0)
        # two blocks of 100 steps, each 0.55 s of wall
        self.assertAlmostEqual(metrics["throughput_MBps"], 100 * 1e6 / 0.55 / 1e6)
        self.assertAlmostEqual(metrics["peak_rss_mb"], 8.0)
        self.assertAlmostEqual(metrics["lowlevel_ratio"], 2.0)
        self.assertAlmostEqual(bases["lowlevel_ratio"]["smart_ms"], 5.0)
        self.assertEqual(bases["lowlevel_ratio"]["pairs"], 3)
        self.assertEqual(bases["step_blocks"], 2)
        self.assertEqual(bases["block_samples_beyond_p90"], 10)

    def test_blocks(self):
        self.assertEqual([len(b) for b in summary.blocks(list(range(99)))], [99])
        self.assertEqual([len(b) for b in summary.blocks(list(range(350)))], [116, 117, 117])
        self.assertEqual(len(summary.blocks(list(range(5000)))), summary.MAX_BLOCKS)

    def test_a_slow_stretch_in_one_block_does_not_move_the_step_metrics(self):
        raw = synthetic_raw(steps=500)
        calm, _ = summary.end_to_end(raw)
        slow = [s * 3 if 200 <= i < 300 else s for i, s in enumerate(raw["step_s"])]
        metrics, _ = summary.end_to_end(dict(raw, step_s=slow, interval_s=slow))
        self.assertAlmostEqual(metrics["step_ms_p50"], calm["step_ms_p50"])
        self.assertAlmostEqual(metrics["step_ms_p90"], calm["step_ms_p90"])
        self.assertAlmostEqual(metrics["throughput_MBps"], calm["throughput_MBps"])
        # every step 20% slower moves both
        slower = [s * 1.2 for s in raw["step_s"]]
        metrics, _ = summary.end_to_end(dict(raw, step_s=slower, interval_s=slower))
        self.assertAlmostEqual(metrics["step_ms_p50"], calm["step_ms_p50"] * 1.2)
        self.assertAlmostEqual(metrics["step_ms_p90"], calm["step_ms_p90"] * 1.2)

    def test_per_layer_reports_every_metric(self):
        raw = synthetic_raw(traced=True)
        metrics = summary.per_layer(raw, {"lanes": []})
        self.assertEqual(set(metrics), set(summary.PER_LAYER))
        self.assertAlmostEqual(metrics["common.pool_hit_ratio"], 0.75)
        self.assertAlmostEqual(metrics["common.pool_acquires"], 40 / 200)
        self.assertAlmostEqual(metrics["core.ns_per_element"], 100.0)
        self.assertAlmostEqual(metrics["analytics.gflops"], 1e9 / (0.4 / 200) / 1e9)
        self.assertEqual(metrics["trace.traced_steps"], 100)
        self.assertEqual(metrics["threading.feed_block_ms"], 0.0)  # layer absent

    def test_unlabelled_time_is_what_no_phase_accounts_for(self):
        raw = synthetic_raw(traced=True)
        raw["samples"]["core.analysis_s"] = [0.003] * 200
        # 200 steps of 3 ms in run(): 0.4 s of it is RunStats phases, so
        # 1 ms per step is unlabelled, out of 5.5 ms of step wall on average.
        metrics = summary.per_layer(raw)
        self.assertAlmostEqual(metrics["core.run_other_ms"], 1.0)
        self.assertAlmostEqual(metrics["trace.unlabelled_share"], 1.0 / 5.5)


class OutputSchema(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_catalogue_matches_benchmark_json(self):
        e2e = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(e2e, summary.END_TO_END)
        self.assertEqual(layers, summary.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]), run.WORKLOADS)

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_result_line_round_trip(self):
        metrics, _ = summary.end_to_end(synthetic_raw())
        line = summary.result_line(True, 12, 0, metrics, summary.END_TO_END)
        summary.validate_result(json.loads(json.dumps(line)), summary.END_TO_END)
        self.assertEqual(list(line), ["correct", "attempted", "failed", "metrics"])

    def test_malformed_result_lines_are_rejected(self):
        metrics, _ = summary.end_to_end(synthetic_raw())
        good = summary.result_line(True, 12, 0, metrics, summary.END_TO_END)
        bad = [
            dict(good, extra=1),
            dict(good, attempted=0),
            dict(good, failed=13),
            dict(good, correct=1),
            dict(good, metrics={k: v for k, v in good["metrics"].items() if k != "setup_s"}),
            dict(good, metrics=dict(good["metrics"], setup_s={"value": math.nan, "unit": "s"})),
            dict(good, metrics=dict(good["metrics"], setup_s={"value": 1.0})),
        ]
        for obj in bad:
            with self.assertRaises(ValueError):
                summary.validate_result(obj, summary.END_TO_END)


if __name__ == "__main__":
    unittest.main()
