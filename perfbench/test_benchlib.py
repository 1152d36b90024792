"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchlib


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile([7], 99), 7)
        self.assertEqual(benchlib.percentile([3, 1, 2], 50), 2)

    def test_tail_needs_ten_samples_beyond(self):
        # p99 needs 1,000 samples (10 beyond rank 990); one fewer drops to p90.
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(999), 90.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(99), 50.0)
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertIsNone(benchlib.tail_percentile(0))

    def test_summarize_reports_the_rule(self):
        s = benchlib.summarize([float(i) for i in range(1, 101)])
        self.assertEqual((s["n"], s["p50"], s["tail_p"], s["tail"]), (100, 50.0, 90.0, 90.0))
        s = benchlib.summarize([1.0] * 5)
        self.assertEqual((s["n"], s["tail_p"], s["tail"]), (5, None, None))

    def test_infinite_sheds_reach_the_tail(self):
        # 1,000 samples of which 20 were shed: the p99 lands on a shed.
        values = [1.0] * 980 + [float("inf")] * 20
        self.assertEqual(benchlib.summarize(values)["tail"], float("inf"))


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0,100) > a [10,60) > b [20,30); root > c [70,90).
        spans = [(1, 0, "root", "r", 0, 100), (2, 1, "a", "r", 10, 60),
                 (3, 2, "b", "r", 20, 30), (4, 1, "c", "r", 70, 90)]
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs, {1: 30, 2: 40, 3: 10, 4: 20})
        self.assertEqual(sum(selfs.values()), 100)

    def test_overlapping_children_count_once(self):
        # Two parallel children covering [10,50) and [30,70) cover 60 units.
        spans = [(1, 0, "step", "r", 0, 100), (2, 1, "drain", "r", 10, 50),
                 (3, 1, "admission", "r", 30, 70)]
        self.assertEqual(benchlib.self_times(spans)[1], 40)

    def test_children_clipped_to_parent(self):
        spans = [(1, 0, "p", "r", 0, 10), (2, 1, "c", "r", 5, 25)]
        self.assertEqual(benchlib.self_times(spans)[1], 5)

    def test_layer_totals(self):
        spans = [(1, 0, "root", "r", 0, 100), (2, 1, "core.x", "a", 0, 10),
                 (3, 1, "core.x", "b", 20, 50)]
        total, count, durations = benchlib.layer_totals(spans)["core.x"]
        self.assertEqual((total, count, sorted(durations)), (40, 2, [10, 30]))
        self.assertEqual(benchlib.layer_totals(spans)["root"][0], 60)

    def test_union_length(self):
        self.assertEqual(benchlib.union_length([]), 0)
        self.assertEqual(benchlib.union_length([(0, 5), (3, 8), (10, 12)]), 10)
        self.assertEqual(benchlib.union_length([(0, 10), (2, 3)]), 10)


def step(rate, valid=True, shed=0, tail=10.0, grows=False):
    return {"rate": rate, "valid": valid, "shed": shed, "tail_ms": tail, "grows": grows}


class MaxRateTest(unittest.TestCase):
    LIMIT = 50.0

    def test_highest_passing_rate(self):
        steps = [step(100), step(200, tail=20), step(300, tail=60), step(400)]
        # 400 passes again, but the scan stops at the first failure (300).
        self.assertEqual(benchlib.max_rate(steps, self.LIMIT), 200)

    def test_order_of_input_does_not_matter(self):
        steps = [step(300, shed=1), step(100), step(200)]
        self.assertEqual(benchlib.max_rate(steps, self.LIMIT), 200)

    def test_each_failure_reason(self):
        for bad in (step(200, shed=3), step(200, tail=51), step(200, grows=True),
                    step(200, tail=None)):
            self.assertEqual(benchlib.max_rate([step(100), bad], self.LIMIT), 100)

    def test_limit_is_inclusive(self):
        self.assertEqual(benchlib.max_rate([step(100, tail=50.0)], self.LIMIT), 100)

    def test_invalid_steps_are_skipped(self):
        steps = [step(100), step(200, valid=False, shed=9), step(300)]
        self.assertEqual(benchlib.max_rate(steps, self.LIMIT), 300)

    def test_nothing_passes(self):
        self.assertIsNone(benchlib.max_rate([step(100, shed=1)], self.LIMIT))
        self.assertIsNone(benchlib.max_rate([], self.LIMIT))

    def test_generator_validity(self):
        self.assertTrue(benchlib.generator_on_time([0.1] * 100, 10))
        self.assertTrue(benchlib.generator_on_time([], 10))
        late = [0.1] * 98 + [30.0] * 2  # the 99th percentile is late
        self.assertFalse(benchlib.generator_on_time(late, 10))


class BacklogGrowthTest(unittest.TestCase):
    def grows(self, depths):
        times = [i * 0.01 for i in range(len(depths))]
        return benchlib.backlog_grows(times, depths, min_growth=4, rel_growth=0.5)

    def test_steady_noisy_backlog_does_not_grow(self):
        self.assertFalse(self.grows([2, 0, 3, 1, 2, 4, 0, 2, 3, 1, 2, 2] * 10))

    def test_linear_growth_grows(self):
        self.assertTrue(self.grows(list(range(120))))

    def test_saturated_plateau_does_not_grow(self):
        # A bounded queue fills quickly and then stays full.
        self.assertFalse(self.grows([20] + [32] * 119))

    def test_small_absolute_rise_is_noise(self):
        self.assertFalse(self.grows([0] * 40 + [1] * 40 + [3] * 40))

    def test_late_surge_grows(self):
        self.assertTrue(self.grows([1] * 80 + [40] * 40))

    def test_too_few_samples(self):
        self.assertFalse(self.grows([0, 100, 200]))

    def test_unsorted_times(self):
        times = [0.3, 0.1, 0.2, 0.6, 0.5, 0.4]
        depths = [30, 10, 20, 60, 50, 40]
        self.assertTrue(benchlib.backlog_grows(times, depths, 4, 0.5))

    def test_length_mismatch(self):
        with self.assertRaises(ValueError):
            benchlib.backlog_grows([0.0], [1, 2], 4, 0.5)


class FingerprintTest(unittest.TestCase):
    FP = {"nproc": 4, "cpu_model": "X", "sha_ni": True, "avx2": True,
          "avx512f": False, "compiler": "gcc 12", "build_type": "Release",
          "commit": "a"}

    def record(self, fp, value):
        return {"fingerprint": fp, "metrics": {"p50_ms": {"value": value, "unit": "ms"}}}

    def test_matching_fingerprints_compare(self):
        other = dict(self.FP, commit="b")  # a different commit is the point
        result = benchlib.compare(self.record(self.FP, 2.0), self.record(other, 3.0))
        self.assertEqual(result["fingerprint_mismatch"], [])
        self.assertEqual(result["rows"], [("p50_ms", "ms", 2.0, 3.0, 0.5)])

    def test_mismatch_is_flagged(self):
        other = dict(self.FP, nproc=1, sha_ni=False)
        result = benchlib.compare(self.record(self.FP, 2.0), self.record(other, 3.0))
        self.assertEqual(result["fingerprint_mismatch"], ["nproc", "sha_ni"])


if __name__ == "__main__":
    unittest.main()
