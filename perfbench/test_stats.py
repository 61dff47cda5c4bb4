"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def span(id_, parent, start, end, name="s", run=0):
    return {"id": id_, "name": name, "parent": parent, "run": run,
            "start_ns": start, "end_ns": end}


def op(kind, ok, wall, rows=1, traced=False):
    return {"kind": kind, "ok": ok, "wall_s": wall, "rows": rows,
            "traced": traced}


class TailPercentileTest(unittest.TestCase):
    def test_too_few_samples_for_any_percentile(self):
        self.assertIsNone(stats.tail_percentile(0))
        self.assertIsNone(stats.tail_percentile(19))

    def test_median_needs_twenty_samples(self):
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)

    def test_p90_needs_a_hundred_samples(self):
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(99), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)

    def test_higher_percentiles(self):
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_chosen_percentile_leaves_ten_samples_beyond(self):
        for n in range(20, 3000, 7):
            pct = stats.tail_percentile(n)
            values = list(range(n))
            cut = stats.percentile(values, pct)
            beyond = sum(1 for v in values if v > cut)
            self.assertGreaterEqual(beyond, stats.MIN_SAMPLES_BEYOND, n)

    def test_nearest_rank(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(stats.percentile(values, 50), 3)
        self.assertEqual(stats.percentile(values, 90), 5)
        self.assertEqual(stats.percentile(values, 0), 1)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span(0, -1, 10, 30)]), {0: 20})

    def test_children_are_subtracted(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 60)]
        self.assertEqual(stats.self_times(spans)[0], 70)

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 50), span(2, 0, 40, 70)]
        self.assertEqual(stats.self_times(spans)[0], 40)

    def test_child_time_outside_the_parent_is_ignored(self):
        spans = [span(0, -1, 20, 100), span(1, 0, 0, 30), span(2, 0, 90, 150)]
        self.assertEqual(stats.self_times(spans)[0], 60)

    def test_only_direct_children_are_subtracted(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 60),
                 span(2, 1, 20, 40)]
        own = stats.self_times(spans)
        self.assertEqual(own[0], 50)
        self.assertEqual(own[1], 30)
        self.assertEqual(own[2], 20)

    def test_per_root_seconds(self):
        spans = [span(0, -1, 0, 100, "window"), span(1, 0, 0, 10, "poll"),
                 span(2, 0, 20, 40, "poll"), span(3, -1, 200, 300, "window"),
                 span(4, -1, 400, 450, "poll")]
        self.assertEqual(stats.per_root_seconds(spans, "poll", "window"),
                         [30e-9, 0.0])


class FailedOpShareTest(unittest.TestCase):
    def test_every_attempt_counts(self):
        ops = [op("detect", True, 1.0), op("clean", False, 2.0),
               op("clean", True, 3.0), op("detect", False, 4.0)]
        attempted, failed, share, walls = stats.summarize_ops(ops)
        self.assertEqual((attempted, failed), (4, 2))
        self.assertEqual(share, 0.5)

    def test_failed_ops_give_no_latency_sample(self):
        ops = [op("window", True, 1.0), op("window", False, 9.0)]
        _, _, _, walls = stats.summarize_ops(ops)
        self.assertEqual(walls, {"window": [1.0]})

    def test_no_failures(self):
        ops = [op("window", True, 1.0)] * 5
        self.assertEqual(stats.summarize_ops(ops)[:3], (5, 0, 0.0))

    def test_nothing_attempted_counts_as_all_failed(self):
        self.assertEqual(stats.summarize_ops([])[:3], (0, 0, 1.0))


class EndToEndTest(unittest.TestCase):
    def raw(self, ops, reduce):
        return {"ops": ops, "latency_op": "detect",
                "throughput_op": "clean", "throughput_reduce": reduce,
                "rows": 100, "setup_s": [3.0, 1.0, 2.0],
                "peak_rss_mb": 50.0, "quality": {"residual": 0.25}}

    def test_median_reduction(self):
        ops = [op("detect", True, 0.1), op("clean", True, 1.0),
               op("detect", True, 0.3), op("clean", True, 4.0),
               op("detect", True, 0.2), op("clean", True, 2.0),
               op("clean", False, 0.001)]
        m = stats.end_to_end(self.raw(ops, "median"))
        self.assertEqual(m["setup_s"], 2.0)
        self.assertAlmostEqual(m["latency_p50_ms"], 200.0)
        self.assertAlmostEqual(m["clean_rows_per_s"], 50.0)
        self.assertEqual(m["repair_quality"], 0.75)

    def test_total_reduction(self):
        ops = [op("clean", True, 1.0, rows=10), op("clean", True, 3.0,
                                                     rows=30),
               op("detect", True, 0.5)]
        m = stats.end_to_end(self.raw(ops, "total"))
        self.assertAlmostEqual(m["clean_rows_per_s"], 10.0)


if __name__ == "__main__":
    unittest.main()
