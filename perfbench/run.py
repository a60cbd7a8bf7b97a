#!/usr/bin/env python3
"""Pipeline benchmark: RevNIC from driver image to emitted and raced drivers.

    python3 perfbench/run.py --workload corpus_fleet --seed 1 --seconds 20 --trace 0

Builds perfbench/ (the repository's src/ plus the `pipebench` driver) into
$CARGO_TARGET_DIR (default .bench_build), runs the workload as fresh
`pipebench` processes, checks the outputs, and prints one JSON object as its
last stdout line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. Lines before it record the facts that make rows
comparable (bench_env) and the output digests of every driver. See
perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
# light_dist runs one fault-plan sub-seed per this many requested seconds
# (about one batch's wall time on a 4-core host).
LIGHT_BATCH_S = 1.25
# Sub-seed j of a light_dist run; j = 0 is the run's own seed.
SUB_SEED_STRIDE = 1_000_003
# native_race sets up this many times per run (fresh processes) for setup_s.
NATIVE_SETUPS = 3
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds pipebench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "session.h")):
        log("the program's sources (src/) are not next to perfbench/; nothing to measure")
        return None
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", bdir, "--target", "pipebench", "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_LIMIT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(cmd)}")
            return None
    exe = os.path.join(bdir, "pipebench")
    return exe if os.access(exe, os.X_OK) else None


def bench_env(seed, build_type, compiler):
    """Facts that make rows comparable."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "build_type": build_type, "compiler": compiler, "commit": commit or "unknown",
            "source_sha256": digest.hexdigest()[:16], "seed": seed,
            "default_seed": DEFAULT_SEED}


class Runner:
    """Starts pipebench processes and keeps the run's op and digest books."""

    def __init__(self, exe, tmp, deadline):
        self.exe = exe
        self.tmp = tmp
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.build_type = "unknown"
        self.compiler = "unknown"

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED {what}")

    def child(self, *args):
        """Runs one pipebench process; its JSON result, or None."""
        cmd = [self.exe] + [str(a) for a in args]
        env = dict(os.environ, TMPDIR=self.tmp)
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.op(False, f"{' '.join(cmd[1:])}: timed out")
            return None
        log(f"{' '.join(cmd[1:])}: {time.monotonic() - t0:.1f}s, exit {proc.returncode}")
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            self.op(False, f"{' '.join(cmd[1:])}: exit {proc.returncode}, no result")
            return None
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        if proc.returncode != 0 and result["failed"] == 0:
            self.op(False, f"{' '.join(cmd[1:])}: exit {proc.returncode}")
        self.build_type = result["build_type"]
        self.compiler = result["compiler"]
        return result

    def same_digests(self, a, b, what):
        """One op per driver: the digests both results carry must agree."""
        for driver, da in sorted(a["digests"].items()):
            db = b["digests"].get(driver, {})
            shared = [k for k in sorted(da) if k in db]
            differs = [k for k in shared if da[k] != db[k]]
            self.op(bool(shared) and not differs,
                    f"{what}: {driver} digests differ or missing: {differs or shared}")


def number(v):
    """A metric value as a float; NaN for anything pipebench could not measure."""
    ok = isinstance(v, (int, float)) and not isinstance(v, bool)
    return float(v) if ok else math.nan


def median_of(results, name):
    return statistics.median(number(r["metrics"].get(name)) for r in results)


def merged(results, probe):
    """Per-layer values: medians over the timed processes plus the probe."""
    names = set().union(*(r["metrics"] for r in results))
    out = {n: median_of(results, n) for n in names}
    idle = set().union(*(r["idle"] for r in results))
    if probe is not None:
        out.update({n: number(v) for n, v in probe["metrics"].items()})
        idle |= set(probe["idle"])
    return out, idle


def print_digests(workload, result, probe):
    """One line per driver, so a change of output bytes shows in the log."""
    for driver, ds in sorted(result["digests"].items()):
        ds = dict(ds, **(probe["digests"].get(driver, {}) if probe else {}))
        print(f"digest {workload} {driver} " +
              " ".join(f"{k}={v}" for k, v in sorted(ds.items())))


def run_batch_workload(rn, workload, seed, seconds, trace):
    """corpus_fleet / light_dist: one RunBatch per fresh process."""
    start = time.monotonic()
    timed = []
    if workload == "corpus_fleet":
        # The same seed again and again until the seconds are used; every
        # repetition must reproduce the first one's bytes.
        while True:
            r = rn.child("batch", "--workload", workload, "--seed", seed)
            if r is None:
                break
            if timed:
                rn.same_digests(timed[0], r, "repetition")
            timed.append(r)
            spent = time.monotonic() - start
            if spent + 0.5 * spent / len(timed) > seconds:
                break
        subject = timed[0] if timed else None
    else:
        # One batch per fault-plan sub-seed (work varies strongly with the
        # fault seed, so a run covers several), then the first sub-seed
        # again for the determinism check.
        count = max(1, round(seconds / LIGHT_BATCH_S))
        for j in range(count):
            r = rn.child("batch", "--workload", workload,
                         "--seed", seed + j * SUB_SEED_STRIDE)
            if r is not None:
                timed.append(r)
        subject = timed[0] if timed and timed[0]["seed"] == seed else None
        if subject is not None:
            again = rn.child("batch", "--workload", workload, "--seed", seed)
            if again is not None:
                rn.same_digests(subject, again, "repetition")
    if not timed:
        return None
    probe = None
    if trace and subject is not None:
        probe = rn.child("probe", "--workload", workload, "--seed", subject["seed"])
        if probe is not None:
            # A standalone session must produce the batch's bytes: fleet
            # placement is scheduling only.
            rn.same_digests(subject, probe, "session vs batch")
    print_digests(workload, timed[0], probe)
    if not trace:
        return {n: median_of(timed, n)
                for n in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "covered_blocks")}, set()
    metrics, idle = merged(timed, probe)
    metrics["trace.wall_s"] = median_of(timed, "wall_s")
    return metrics, idle


def run_native_workload(rn, seed, seconds, trace):
    """native_race: set-up in fresh processes, the race in the last one."""
    setups = []
    for _ in range(NATIVE_SETUPS - 1):
        r = rn.child("native", "--seed", seed, "--setup-only")
        if r is not None:
            setups.append(r)
    args = ["native", "--seed", seed, "--seconds", seconds] + (["--trace"] if trace else [])
    main = rn.child(*args)
    if main is None or not main["series"]:
        return None
    for r in setups:
        rn.same_digests(main, r, "set-up repetition")
    probe = None
    if trace:
        probe = rn.child("probe", "--workload", "native_race", "--seed", seed)
        if probe is not None:
            rn.same_digests(main, probe, "session vs batch")
    print_digests("native_race", main, probe)
    series = {k: statistics.median(number(x) for x in v) for k, v in main["series"].items()}
    if not trace:
        return {"wall_s": series["wall_s"], "cpu_s": series["cpu_s"],
                "setup_s": median_of(setups + [main], "setup_s"),
                "peak_rss_mb": main["metrics"]["peak_rss_mb"],
                "covered_blocks": main["metrics"]["covered_blocks"]}, set()
    metrics, idle = merged([main], probe)
    metrics["native_fps"] = series["native_fps"]
    metrics["dbt_fps"] = series["dbt_fps"]
    metrics["trace.wall_s"] = series["wall_s"]
    return metrics, idle


TIME_UNITS = {"s", "ms", "units"}


def must_be_positive(unit):
    """Times, rates and virtual time units: zero means nothing was measured."""
    return unit in TIME_UNITS or "/" in unit


def validate(metrics, idle, declared):
    """Problems with the metrics this run prints; empty when all is well."""
    problems = []
    for m in declared:
        name, unit = m["name"], m["unit"]
        v = metrics.get(name, math.nan)
        if not math.isfinite(v):
            problems.append(f"{name}: missing or not a finite number ({v!r})")
        elif name in idle:
            if v != 0:
                problems.append(f"{name}: idle on this workload but reads {v}")
        elif v < 0 or (v == 0 and must_be_positive(unit)):
            problems.append(f"{name}: reads {v} {unit} where work was done")
    return problems


def finite_or_none(v):
    return v if math.isfinite(v) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**40:
        ap.error("--seed must be in [0, 2^40)")

    started = time.monotonic()
    exe = build()
    if exe is None:
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    tmp = os.path.join(build_dir(), "tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    rn = Runner(exe, tmp, time.monotonic() + RUN_LIMIT_S)
    try:
        if args.workload == "native_race":
            out = run_native_workload(rn, args.seed, seconds, args.trace)
        else:
            out = run_batch_workload(rn, args.workload, args.seed, seconds, args.trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if out is None:
        log("no timed result")
        return 1
    metrics, idle = out
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = validate(metrics, idle, declared)
    for p in problems:
        rn.op(False, p)
    print("bench_env " + json.dumps(bench_env(args.seed, rn.build_type, rn.compiler),
                                    sort_keys=True))
    log(f"{args.workload}: {time.monotonic() - started:.1f}s including build")
    result = {
        "correct": rn.failed == 0 and not problems,
        "attempted": rn.attempted,
        "failed": rn.failed,
        "metrics": {m["name"]: {"value": finite_or_none(metrics.get(m["name"], math.nan)),
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
