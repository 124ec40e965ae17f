#!/usr/bin/env python3
"""Builds gem2bench from the checkout's sources and runs one workload.

    python3 bench/gem2bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1> [--out <dir>] [--scale full|smoke]

Run it from anywhere inside a checkout; the repository root is two levels
above this file. It configures the repository's root build with
attach.cmake, which adds this directory to it, and builds the gem2bench
target, so the benchmark measures the library as the root build makes it.
The build goes to $CARGO_TARGET_DIR/gem2bench when that variable is set
(relative paths are taken from the repository root), else to
.bench_build/gem2bench. The first run configures and compiles (minutes);
later runs only check that the build is current.

The last line of standard output is the benchmark's result: one JSON object
with "correct", "attempted", "failed" and "metrics" -- the end-to-end
metrics of BENCHMARK.json, or with --trace 1 its per-layer metrics. The line
is checked against BENCHMARK.json (every named metric present, units equal)
before it is printed. Exits non-zero without a result line when the build,
the run, or that check fails, and 1 with a result line when an answer was
wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "gem2bench")


def child_env():
    """The environment for the build and the run: temporary files (the
    compiler's included) stay inside the build directory."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the gem2bench target; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("the repository's root build (CMakeLists.txt) not found under " + ROOT)
    out = build_dir()
    env = child_env()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        hook = os.path.join(HERE, "attach.cmake")
        steps.append(["cmake", "-S", ROOT, "-B", out,
                      "-DCMAKE_PROJECT_gem2tree_INCLUDE=" + hook])
    steps.append(["cmake", "--build", out, "--target", "gem2bench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT, env=env)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "gem2bench")


def check(line, trace):
    """Validates the binary's result line against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    metrics = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        missing = sorted(names - set(metrics))
        extra = sorted(set(metrics) - names)
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra))
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail("unit of %s differs from BENCHMARK.json" % m["name"])
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--out", default=None,
                        help="directory for result and trace files "
                             "(default: <build dir>/results)")
    parser.add_argument("--scale", default="full", choices=["full", "smoke"])
    args = parser.parse_args()

    binary = build()
    out_dir = args.out or os.path.join(build_dir(), "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--out", out_dir, "--scale", args.scale]
    trace = args.trace == "1"
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("gem2bench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        print(proc.stdout, file=sys.stderr)
        fail("gem2bench exited with code %d" % proc.returncode)
    check(lines[-1], trace)
    print("\n".join(lines))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
