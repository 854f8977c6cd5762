"""Unit tests for the benchmark's statistics.

Run: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class PercentileChoice(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertFalse(stats.has_tail(19, 50.0))
        self.assertTrue(stats.has_tail(20, 50.0))
        self.assertFalse(stats.has_tail(99, 90.0))
        self.assertTrue(stats.has_tail(100, 90.0))
        self.assertFalse(stats.has_tail(999, 99.0))
        self.assertTrue(stats.has_tail(1000, 99.0))

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99.0), 10)
        self.assertEqual(stats.samples_beyond(100, 90.0), 10)
        self.assertEqual(stats.samples_beyond(99, 90.0), 9)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 0), 1)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class MedianAndQuartiles(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_the_acceptance_rule(self):
        values = [10.0, 12.0, 9.5, 11.0, 10.5, 13.0, 9.0, 10.2, 10.8, 11.5]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_single_sample_has_no_spread(self):
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0, 5.0))
        self.assertEqual(stats.spread([5.0]), 0.0)


class CommandCount(unittest.TestCase):
    def test_at_least_three_and_odd(self):
        self.assertTrue(stats.more_commands([], 0.0, 1.0))
        self.assertTrue(stats.more_commands([7.0, 7.0], 14.0, 1.0))
        self.assertFalse(stats.more_commands([7.0] * 3, 21.0, 20.0))
        self.assertTrue(stats.more_commands([1.0] * 3, 3.0, 20.0))
        self.assertTrue(stats.more_commands([1.0] * 4, 4.0, 4.5))
        self.assertFalse(stats.more_commands([1.0] * 5, 5.0, 6.5))


class PairedOverhead(unittest.TestCase):
    def test_overhead_pct(self):
        self.assertAlmostEqual(stats.overhead_pct(10.0, 10.5), 5.0)
        self.assertAlmostEqual(stats.overhead_pct(10.0, 9.0), -10.0)

    def test_a_range_spanning_zero_is_unresolved(self):
        self.assertTrue(stats.resolved([0.5, 1.0, 2.0]))
        self.assertTrue(stats.resolved([-0.5, -1.0]))
        self.assertFalse(stats.resolved([-0.5, 1.0, 2.0]))
        self.assertFalse(stats.resolved([0.0, 1.0]))


class MetricNames(unittest.TestCase):
    def test_accepts(self):
        for name in ["wall_s", "setup_s", "reuse.marker_ns_per_ref_per_cap_16",
                     "engine.shards_16_work_refs", "a64fx.sim_refs_per_s", "9-x"]:
            self.assertTrue(stats.valid_name(name), name)

    def test_rejects(self):
        for name in ["", "_lead", ".lead", "has space", "per/s", "é", "x" * 65]:
            self.assertFalse(stats.valid_name(name), name)


class Accounting(unittest.TestCase):
    def test_failed_over_attempted(self):
        t = stats.Tally()
        self.assertFalse(t.correct)  # nothing attempted is not a pass
        t.add(True, 252)
        t.add(False)
        self.assertEqual((t.attempted, t.failed), (253, 1))
        self.assertFalse(t.correct)

    def test_merge(self):
        a, b = stats.Tally(), stats.Tally()
        a.add(True, 3)
        b.add(False, 2)
        b.add(True)
        a.merge(b)
        self.assertEqual((a.attempted, a.failed), (6, 2))
        ok = stats.Tally()
        ok.add(True, 5)
        self.assertTrue(ok.correct)


if __name__ == "__main__":
    unittest.main()
