#!/usr/bin/env python3
"""Compares gem2bench results of a parent and a change, metric by metric.

    python3 bench/gem2bench/compare.py <parent_dir> <change_dir>

Each directory holds the untraced result files (result_<workload>_<seed>_
plain.json) that run.py --out wrote for one commit. Runs pair up by
(workload, seed); make at least 10 pairs, alternating which commit runs
first. For every workload the script prints, per metric, each side's median
and quartiles, the fraction of pairs the change wins (ties count for
neither), and a verdict.

End-to-end metrics are judged under their bound in BENCHMARK.json:

  regressed   every change run is worse than every parent run and the
              change's median is worse by more than the bound; or the
              parent's spread is within the bound and the median is worse by
              more than the bound
  unresolved  the parent's own spread (quartile distance / median) exceeds
              the bound, and neither of the all-runs cases holds
  improved    every change run beats every parent run, or the change wins at
              least 9 of 10 pairs and the medians differ by more than the
              parent's quartile distance
  unchanged   otherwise

Per-layer metrics have no bound. Those a plain run reports for the workload
(the demoted timings ops_per_s, p50_ms and p99_ms among them) are judged by
the same improved rule and its mirror image, "worse"; anything else reads
unresolved, and identical values in every pair read unchanged. "worse" is
shown but does not fail the comparison.

Paired runs whose input fingerprints differ are reported: their numbers
come from different inputs and do not compare. Exits 1 when any end-to-end
metric regressed.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(directory):
    runs = {}
    for path in glob.glob(os.path.join(directory, "result_*_plain.json")):
        with open(path) as f:
            r = json.load(f)
        runs[(r["workload"], r["seed"])] = r
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(pairs, bound, higher_is_better):
    """Judges (parent, change) value pairs of one (workload, metric).

    `bound` is the share of the parent's median the change may be worse by,
    or None for a per-layer metric. Returns (verdict, fraction of pairs the
    change wins)."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1 if higher_is_better else -1

    def beats(a, b):
        return sign * (a - b) > 0

    win_frac = sum(1 for p, c in pairs if beats(c, p)) / len(pairs)
    loss_frac = sum(1 for p, c in pairs if beats(p, c)) / len(pairs)
    all_better = all(beats(c, p) for c in change for p in parent)
    all_worse = all(beats(p, c) for c in change for p in parent)
    q1, med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    apart = abs(c_med - med) > q3 - q1
    improved = all_better or (win_frac >= 0.9 and apart)

    if all(p == c for p, c in pairs):
        return "unchanged", win_frac
    if bound is None:
        if improved:
            return "improved", win_frac
        if all_worse or (loss_frac >= 0.9 and apart):
            return "worse", win_frac
        return "unresolved", win_frac
    spread = (q3 - q1) / med if med else 0.0
    worse_by = -sign * (c_med - med) / med if med else 0.0
    if all_worse and worse_by > bound:
        return "regressed", win_frac
    if spread > bound and not all_better:
        return "unresolved", win_frac
    if worse_by > bound:
        return "regressed", win_frac
    if improved:
        return "improved", win_frac
    return "unchanged", win_frac


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no (workload, seed) pairs in common", file=sys.stderr)
        sys.exit(2)
    for key in keys:
        if parent[key]["fingerprint"] != change[key]["fingerprint"]:
            print("warning: inputs differ for %s seed %d" % key)
    regressed = False
    print("%-22s %-32s %5s %36s %36s %6s  %s" % (
        "workload", "metric", "pairs", "parent q1 / median / q3",
        "change q1 / median / q3", "wins", "verdict"))
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        rows = [("end_to_end", m, m["bound"]) for m in bench["end_to_end"]]
        rows += [("per_layer", m, None) for m in bench["per_layer"]]
        for section, m, bound in rows:
            name = m["name"]
            pairs = [(parent[(workload, s)][section][name]["value"],
                      change[(workload, s)][section][name]["value"]) for s in seeds]
            if bound is None and not any(p for p, _ in pairs):
                continue  # not measured by this workload's plain runs
            result, win_frac = verdict(pairs, bound, m["better"] == "higher")
            regressed |= result == "regressed"
            print("%-22s %-32s %5d %36s %36s %6.2f  %s%s" % (
                workload, name, len(pairs),
                "%.4g / %.4g / %.4g" % quartiles([p for p, _ in pairs]),
                "%.4g / %.4g / %.4g" % quartiles([c for _, c in pairs]),
                win_frac, result, "" if len(pairs) >= 10 else " (fewer than 10 pairs)"))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
