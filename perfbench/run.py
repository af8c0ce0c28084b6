#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which pulls in the library from the checkout root) into
.bench_build/perfbench, runs the measuring program, and prints its report.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; setup_s is the median over SETUP_RUNS set-up-only
processes, run after the measuring one. With --trace 1 they are
the per-layer ones. Any build failure, verdict divergence or timeout exits
non-zero without printing a result. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SETUP_RUNS = 5
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; logs go to stderr."""
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run(args):
    try:
        done = subprocess.run([BINARY] + args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"exit code {done.returncode}: {' '.join(args)}",
             done.returncode)
    return done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trials", type=int, default=0,
                        help="override the workload's trial-set size (smoke)")
    opts = parser.parse_args()

    build()
    common = ["--workload", opts.workload]
    lines = run(common + ["--seed", str(opts.seed),
                          "--seconds", str(opts.seconds),
                          "--trace", str(opts.trace),
                          "--trials", str(opts.trials)])
    result = json.loads(lines[-1])
    if opts.trace == 0:
        setups = []
        for _ in range(SETUP_RUNS):
            out = run(common + ["--setup-only"])
            setups.append(float(out[-1].split()[1]))
        setup_s = statistics.median(setups)
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        lines.insert(-1, "%-34s %16.6f s" % ("setup_s", setup_s))
        lines.insert(-1, "# setup_s over %d processes: %s" % (
            len(setups), " ".join("%.4f" % s for s in setups)))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
