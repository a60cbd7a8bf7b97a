#!/usr/bin/env python3
"""Self-test of the pipeline benchmark.

    python3 perfbench/selftest.py [--seed N]

Runs every workload of BENCHMARK.json at its shortest length (--seconds 1),
untraced and traced, and checks the result line: the keys are exactly
correct/attempted/failed/metrics, the run is correct, and every named metric
is present with its declared unit and a finite value.
Exits 0 when every run passes. Takes a few minutes (native_race sets up
three times per run).
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(result, declared):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, declared {m['unit']!r}")
        v = got.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"{m['name']}: value {v!r} is not a finite number")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if proc.returncode != 0 or result is None:
                problems = [f"exit {proc.returncode}, result line {lines[-1:]!r}"]
            else:
                problems = check(result, spec["per_layer"] if trace else spec["end_to_end"])
            status = "ok" if not problems else "FAIL"
            print(f"{status} {w['name']} --trace {trace}")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    print(f"{failures} of {2 * len(spec['workloads'])} runs failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
