#!/usr/bin/env python3
"""Unit tests for the benchmark's statistics, rung summaries and compare
verdicts. Run: python3 perfbench/test_perfbench.py"""

import json
import math
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class NearestRankTest(unittest.TestCase):
    def test_small_window_p99_is_the_worst_sample(self):
        # (n-1)*99/100 indexing returns the second-largest sample for
        # n <= 100; nearest rank must return the largest.
        self.assertEqual(stats.nearest_rank([6.8, 8750.0], 99), 8750.0)
        self.assertEqual(stats.nearest_rank(list(range(1, 101)), 99), 99)
        self.assertEqual(stats.nearest_rank(list(range(1, 51)), 99), 50)

    def test_median_and_unsorted_input(self):
        self.assertEqual(stats.nearest_rank([5, 1, 3], 50), 3)
        self.assertEqual(stats.nearest_rank([4, 1, 3, 2], 50), 2)

    def test_empty_input_raises(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 50)


class TailTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 98.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(5), 0.0)

    def test_tail_reports_what_it_used(self):
        p, value, n = stats.tail(list(range(1, 101)))
        self.assertEqual((p, value, n), (90.0, 90, 100))
        self.assertEqual(stats.tail([1.0, 2.0])[1], 2.0)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, med, q3 = stats.quartiles(values)
        self.assertAlmostEqual(med, 14.5)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / med)

    def test_ratio_keeps_its_base(self):
        self.assertEqual(stats.ratio(3, 4), {"value": 0.75, "num": 3, "den": 4})
        self.assertEqual(stats.ratio(0, 0)["value"], 0.0)


def rung(queue_us, latency_ms, ok=None):
    n = len(latency_ms)
    sched = [i * 1000.0 for i in range(n)]
    return {
        "rate": 1000.0, "active_s": n / 1000.0, "scheduled_us": sched, "sent_us": sched,
        "recv_us": [s + l * 1e3 for s, l in zip(sched, latency_ms)],
        "ok": ok or [1.0] * n, "queue_us": queue_us, "server_us": [0.0] * n,
    }


class RungTest(unittest.TestCase):
    def test_meets_slo(self):
        r = run.summarize_rung(rung([10.0] * 100, [2.0] * 100), limit_ms=5.0)
        self.assertTrue(r["meets_slo"])
        self.assertEqual(r["tail_pct"], 90.0)

    def test_a_failed_request_misses_the_limit(self):
        ok = [1.0] * 99 + [0.0]
        r = run.summarize_rung(rung([10.0] * 100, [2.0] * 100, ok), limit_ms=5.0)
        self.assertFalse(r["meets_slo"])
        self.assertEqual(r["failed"], 1)

    def test_growing_backlog_fails(self):
        queue_us = [100.0 * i for i in range(100)]
        r = run.summarize_rung(rung(queue_us, [1.0] * 100), limit_ms=20.0)
        self.assertTrue(r["backlog_growing"])
        self.assertFalse(r["meets_slo"])


class VerdictTest(unittest.TestCase):
    @staticmethod
    def runs(values):
        return {seed: v for seed, v in enumerate(values)}

    def test_worse_beyond_bound(self):
        base = self.runs([10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0])
        new = self.runs([v * 1.3 for v in base.values()])
        # Every run of NEW is slower; lower is better.
        self.assertEqual(compare.verdict(base, new, "lower", 0.1), "worse")

    def test_better_when_every_run_is_better(self):
        base = self.runs([10.0 + i * 0.1 for i in range(10)])
        new = self.runs([5.0 + i * 0.1 for i in range(10)])
        self.assertEqual(compare.verdict(base, new, "lower", 0.1), "better")
        self.assertEqual(compare.verdict(new, base, "higher", 0.1), "better")

    def test_unresolved_when_spread_exceeds_bound(self):
        base = self.runs([5, 10, 15, 20, 5, 10, 15, 20, 5, 10])
        new = self.runs([6, 11, 16, 21, 6, 11, 16, 21, 6, 11])
        self.assertEqual(compare.verdict(base, new, "lower", 0.1), "unresolved")

    def test_unchanged_within_bound(self):
        base = self.runs([10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.2, 9.8, 10.1, 9.9])
        new = self.runs([10.1, 10.0, 9.9, 10.2, 9.8, 10.1, 10.0, 9.9, 10.2, 9.8])
        self.assertEqual(compare.verdict(base, new, "lower", 0.1), "unchanged")

    def test_gain_needs_nine_of_ten_pair_wins(self):
        base = self.runs([10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0])
        faster = {s: v - 0.5 for s, v in base.items()}
        faster[0] = 12.0  # one loss, nine wins: still a gain
        self.assertEqual(compare.verdict(base, faster, "lower", 0.1), "better")
        faster[1] = 12.0  # two losses
        self.assertEqual(compare.verdict(base, faster, "lower", 0.1), "unchanged")

    def test_identical_constant_metric(self):
        ones = self.runs([1.0] * 10)
        self.assertEqual(compare.verdict(ones, ones, "higher", 0.01), "unchanged")


class CompareCommandTest(unittest.TestCase):
    def write(self, path, values):
        with open(path, "w") as f:
            for seed, v in enumerate(values):
                metrics = {m: {"value": v, "unit": "ms"} for m in ("latency_p50_ms",)}
                f.write(json.dumps({"workload": "w", "seed": seed, "trace": 0,
                                    "result": {"correct": True, "metrics": metrics}}) + "\n")

    def test_exit_status_follows_verdicts_and_spread(self):
        bench = {"end_to_end": [{"name": "latency_p50_ms", "unit": "ms",
                                 "better": "lower", "bound": 0.1}], "per_layer": []}
        with tempfile.TemporaryDirectory() as d:
            bpath, base, slow, noisy = (f"{d}/{n}" for n in ("b.json", "base", "slow", "noisy"))
            Path(bpath).write_text(json.dumps(bench))
            self.write(base, [10.0, 10.1, 9.9, 10.0, 10.0])
            self.write(slow, [13.0, 13.1, 12.9, 13.0, 13.0])
            self.write(noisy, [5.0, 10.0, 20.0, 10.0, 5.0])
            with redirect_stdout(StringIO()) as out:
                self.assertEqual(compare.main([base, "--benchmark", bpath]), 0)
                self.assertEqual(compare.main([base, base, "--benchmark", bpath]), 0)
                self.assertEqual(compare.main([base, slow, "--benchmark", bpath]), 1)
                self.assertEqual(compare.main([noisy, "--benchmark", bpath]), 1)
            self.assertIn("worse", out.getvalue())
            self.assertIn("WIDE", out.getvalue())

    def test_tracing_overhead_pairs_seeds_across_traced_and_untraced_runs(self):
        def rec(seed, trace, p50):
            return json.dumps({"workload": "w", "seed": seed, "trace": trace,
                               "details": {"latency_p50_ms": p50},
                               "result": {"correct": True, "metrics": {}}}) + "\n"
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/runs"
            Path(path).write_text(rec(1, 0, 10.0) + rec(1, 1, 10.5) + rec(2, 0, 20.0) +
                                  rec(2, 1, 20.1) + rec(3, 1, 99.0))
            # Seed 3 has no untraced run; the median of 0.5 and 0.1 is 0.3.
            ms, n = compare.tracing_overhead(path)["w"]
            self.assertAlmostEqual(ms, 0.3)
            self.assertEqual(n, 2)


if __name__ == "__main__":
    unittest.main()
