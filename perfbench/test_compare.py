"""Tests of compare.py's verdicts on synthetic samples.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import tempfile
import unittest

from compare import compare, load, verdict


class VerdictTest(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_clear_gain_is_improved(self):
        change = [x * 0.8 for x in self.parent]
        v, change_wins, parent_wins = verdict(self.parent, change, "lower", 0.1)
        self.assertEqual(v, "improved")
        self.assertEqual((change_wins, parent_wins), (10, 0))

    def test_gain_within_the_parent_spread_is_not_improved(self):
        change = [x - 0.1 for x in self.parent]
        v, change_wins, _ = verdict(self.parent, change, "lower", 0.1)
        self.assertEqual(change_wins, 10)
        self.assertEqual(v, "within bound")

    def test_loss_beyond_the_bound_is_regressed(self):
        change = [x * 1.3 for x in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1)[0], "regressed")
        # For a higher-is-better metric the same numbers are a gain.
        self.assertEqual(verdict(self.parent, change, "higher", 0.1)[0], "improved")

    def test_loss_within_the_bound_is_within_bound(self):
        change = [x * 1.05 for x in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1)[0], "within bound")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [x * 1.02 for x in reversed(noisy)]
        self.assertEqual(verdict(noisy, change, "lower", 0.1)[0], "unresolved")

    def test_every_change_run_beating_every_parent_run_resolves_a_wide_spread(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [x / 5 for x in noisy]
        self.assertEqual(verdict(noisy, change, "lower", 0.1)[0], "improved")

    def test_every_change_run_beating_every_parent_run_is_not_by_itself_a_gain(self):
        # Every change run beats every parent run, but the medians differ by
        # less than the parent's quartile spread: not unresolved, not improved.
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [59.0, 58.0, 57.0, 56.0, 55.0, 59.5, 58.5, 57.5, 56.5, 55.5]
        self.assertEqual(verdict(noisy, change, "lower", 0.1)[0], "within bound")

    def test_a_regression_against_a_noisy_parent_is_regressed_not_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [x * 2 for x in noisy]
        self.assertEqual(verdict(noisy, change, "lower", 0.1)[0], "regressed")

    def test_fewer_than_ten_pairs_never_improve(self):
        change = [x * 0.8 for x in self.parent]
        self.assertEqual(verdict(self.parent[:9], change[:9], "lower", 0.1)[0], "within bound")

    def test_a_gain_with_more_failures_is_not_improved(self):
        change = [x * 0.8 for x in self.parent]
        self.assertEqual(verdict(self.parent, change, "lower", 0.1, (0.0, 0.01))[0], "within bound")
        self.assertEqual(verdict(self.parent, change, "lower", 0.1, (0.01, 0.01))[0], "improved")

    def test_load_refuses_a_result_that_failed_its_oracle(self):
        with tempfile.TemporaryDirectory() as d:
            ok = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
            with open(os.path.join(d, "w-seed1-trace0.json"), "w") as f:
                f.write("report line\n" + json.dumps(ok) + "\n")
            self.assertEqual(list(load(d)["w"]), [1])
            bad = dict(ok, correct=False)
            with open(os.path.join(d, "w-seed2-trace0.json"), "w") as f:
                f.write(json.dumps(bad) + "\n")
            with self.assertRaises(ValueError):
                load(d)

    def test_compare_pairs_runs_by_seed_and_reports_fail_ratios(self):
        def run(v, failed=0):
            return {"attempted": 100, "failed": failed, "metrics": {"m": {"value": v}}}
        parent = {"w": {1: run(10.0), 2: run(11.0, 1), 3: run(12.0)}}
        change = {"w": {2: run(5.0), 3: run(6.0), 4: run(1.0)}}
        rows = compare(parent, change, [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.1}])
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0]["pairs"], 2)
        # Two pairs are too few to claim a gain.
        self.assertEqual(rows[0]["verdict"], "within bound")
        self.assertAlmostEqual(rows[0]["fail"][0], 0.005)
        self.assertEqual(rows[0]["fail"][1], 0.0)

    def test_compare_pairs_in_seed_order_when_no_seed_is_shared(self):
        def run(v):
            return {"attempted": 1, "failed": 0, "metrics": {"m": {"value": v}}}
        parent = {"w": {1: run(10.0), 2: run(11.0), 3: run(12.0)}}
        change = {"w": {7: run(10.5), 8: run(11.5)}}
        rows = compare(parent, change, [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.2}])
        self.assertEqual(rows[0]["pairs"], 2)
        self.assertEqual(rows[0]["parent_wins"], 1.0)
        self.assertEqual(rows[0]["verdict"], "within bound")


if __name__ == "__main__":
    unittest.main()
