#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced, with a
one-trial set and a short budget. Checks that the last line is the result
object, that it holds exactly the metrics BENCHMARK.json lists for the mode,
and that each metric is printed by name with its unit in the report above it.

    python3 perfbench/smoke_test.py     (from the root of the repository)
"""

import json
import subprocess
import sys


def check(workload, trace, expected):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
           "--trials", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append("not correct, or nothing attempted")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metrics missing {missing}, unexpected {extra}")
    report = lines[:-1]
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"),
                                                      (int, float)):
            problems.append(f"{name}: {got} (want unit {unit})")
        if not any(line.split()[:1] == [name] and line.split()[2:3] == [unit]
                   for line in report if len(line.split()) >= 3):
            problems.append(f"{name} is not printed with unit {unit}")
    return problems


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in modes.items():
            problems = check(workload, trace, expected)
            print(f"{'FAIL' if problems else 'ok'}: {workload} --trace {trace}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
