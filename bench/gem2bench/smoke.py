#!/usr/bin/env python3
"""gem2bench_smoke: every workload at --scale smoke, untraced and traced.

The gated workloads of BENCHMARK.json plus service_rw.

    python3 smoke.py <path to gem2bench> <path to BENCHMARK.json>

Asserts for each run: exit code 0, a correct result with no failed ops, and
exactly the metrics BENCHMARK.json names (end-to-end untraced, per-layer
traced) with the units it gives. Result and trace files go to ./smoke_out.
"""

import json
import os
import subprocess
import sys


def main():
    binary, bench_path = sys.argv[1], sys.argv[2]
    with open(bench_path) as f:
        bench = json.load(f)
    out_dir = os.path.abspath("smoke_out")
    os.makedirs(out_dir, exist_ok=True)
    problems = []
    # service_rw is runnable but not among BENCHMARK.json's gated workloads.
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += [w for w in ["service_rw"] if w not in workloads]
    for workload in workloads:
        for trace in (False, True):
            cmd = [binary, "--workload", workload, "--seed", "1", "--scale", "smoke",
                   "--seconds", "0.5", "--out", out_dir] + (["--trace"] if trace else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60)
            label = "%s%s" % (workload, " --trace" if trace else "")
            before = len(problems)
            if proc.returncode != 0:
                problems.append("%s: exit code %d" % (label, proc.returncode))
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%d failed=%d" % (
                    label, result["correct"], result["attempted"], result["failed"]))
            wanted = bench["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            if set(got) != {m["name"] for m in wanted}:
                problems.append("%s: metric names differ from BENCHMARK.json" % label)
            for m in wanted:
                if m["name"] in got and got[m["name"]]["unit"] != m["unit"]:
                    problems.append("%s: unit of %s differs" % (label, m["name"]))
            print("ok  " if len(problems) == before else "FAIL", label)
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
