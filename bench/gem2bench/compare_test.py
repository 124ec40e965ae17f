#!/usr/bin/env python3
"""Tests compare.py's verdicts (ctest gem2bench_compare).

    python3 bench/gem2bench/compare_test.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from compare import verdict  # noqa: E402


def pairs(parent, change):
    return list(zip(parent, change))


# Ten parent runs with a quartile spread of about 20% of their median.
NOISY = [80, 85, 90, 95, 100, 100, 105, 110, 115, 120]
STEADY = [99, 99.5, 100, 100, 100, 100, 100, 100, 100.5, 101]


class VerdictTest(unittest.TestCase):
    def test_identical_runs_are_unchanged(self):
        self.assertEqual(verdict(pairs(STEADY, STEADY), 0.1, False)[0], "unchanged")
        self.assertEqual(verdict(pairs(STEADY, STEADY), None, False)[0], "unchanged")

    def test_steady_parent_worse_median_regresses(self):
        change = [v * 1.2 for v in STEADY]
        self.assertEqual(verdict(pairs(STEADY, change), 0.1, False)[0], "regressed")

    def test_noisy_parent_small_shift_is_unresolved(self):
        change = [v * 1.05 for v in NOISY]
        self.assertEqual(verdict(pairs(NOISY, change), 0.1, False)[0], "unresolved")

    def test_noisy_parent_every_run_worse_regresses(self):
        # Every change run is slower than every parent run, by far more than
        # the bound: the parent's spread must not hide it.
        change = [v + 100 for v in NOISY]
        self.assertEqual(verdict(pairs(NOISY, change), 0.1, False)[0], "regressed")

    def test_noisy_parent_every_run_better_improves(self):
        change = [v - 70 for v in NOISY]
        self.assertEqual(verdict(pairs(NOISY, change), 0.1, False)[0], "improved")

    def test_direction_follows_better(self):
        change = [v * 1.2 for v in STEADY]
        self.assertEqual(verdict(pairs(STEADY, change), 0.1, True)[0], "improved")

    def test_win_fraction(self):
        change = STEADY[:9] + [STEADY[9] + 1]
        self.assertEqual(verdict(pairs(STEADY, change), 0.1, True)[1], 0.1)

    def test_unbounded_metric(self):
        self.assertEqual(verdict(pairs(STEADY, [v * 1.2 for v in STEADY]), None, False)[0],
                         "worse")
        self.assertEqual(verdict(pairs(STEADY, [v * 0.8 for v in STEADY]), None, False)[0],
                         "improved")
        self.assertEqual(verdict(pairs(NOISY, [v * 1.02 for v in NOISY]), None, False)[0],
                         "unresolved")


if __name__ == "__main__":
    unittest.main()
