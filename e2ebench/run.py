#!/usr/bin/env python3
"""End-to-end FARM benchmark: builds the program from source and runs one
workload (or all of them, each in its own process).

    python3 e2ebench/run.py --workload usecase_mix --seed 1 --seconds 50 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 50

With one workload, the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer ones with --trace 1. With --workload all, each
workload runs untraced and traced, and the tracing overhead (traced minus
untraced end-to-end figures) is printed. Results files and chrome traces go
to <build dir>/results. The build directory is $CARGO_TARGET_DIR if set,
else .bench_build, relative to the repository root.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["usecase_mix", "leaf_density", "fabric_churn"]
# A run that has not finished by then is stopped and counts as failed.
RUN_TIMEOUT_S = 170
# Pool width of the program under test (its FARM_THREADS). Fixed, so runs on
# hosts with different core counts are comparable. One thread: on a shared
# 4-vCPU host every parallel batch waits for whichever vCPU the hypervisor has
# preempted, and at widths 4 and 2 the per-operation medians moved by 10-40%
# between runs of the same code; at width 1 by about 5%.
POOL_THREADS = 1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds farm_e2e; returns the binary path."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                # Leave no half-configured tree behind for the next run.
                cache = os.path.join(bdir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return None
        jobs = str(max(1, min(os.cpu_count() or 1, 4)))
        r = subprocess.run(["cmake", "--build", bdir, "--target", "farm_e2e",
                            "-j", jobs], stdout=sys.stderr)
        if r.returncode != 0:
            return None
    return os.path.join(bdir, "farm_e2e")


def git_describe():
    # Never look above the checkout: a benchmark copy is not a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                           cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def expected_metrics():
    """Metric names per trace mode from BENCHMARK.json, when present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}


def run_one(binary, workload, seed, seconds, trace, quick, describe, echo):
    """Runs one workload process; returns its result object or None."""
    out_dir = os.path.join(build_dir(), "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_dir, "--describe", describe]
    if quick:
        cmd.append("--quick")
    env = dict(os.environ,
               FARM_THREADS=str(min(POOL_THREADS, os.cpu_count() or 1)))
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None, None
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    if r.returncode != 0 or not lines:
        log(f"{workload}: exited with {r.returncode}")
        return None, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not a result: {lines[-1]!r}")
        return None, None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log(f"{workload}: malformed result keys {sorted(result)}")
        return None, None
    for name, m in result["metrics"].items():
        if not math.isfinite(m["value"]):
            log(f"{workload}: {name} is not finite")
            return None, None
    want = expected_metrics()
    if want is not None and sorted(result["metrics"]) != sorted(want[trace]):
        log(f"{workload}: metrics {sorted(result['metrics'])} differ from "
            f"BENCHMARK.json {sorted(want[trace])}")
        return None, None
    return result, lines[-1]


def run_all(binary, args, describe):
    """Every workload untraced and traced, each in its own process."""
    ok = True
    summary = {}
    for w in WORKLOADS:
        plain, _ = run_one(binary, w, args.seed, args.seconds, 0, args.quick,
                           describe, echo=True)
        traced, _ = run_one(binary, w, args.seed, args.seconds, 1, args.quick,
                            describe, echo=False)
        if plain is None or traced is None:
            ok = False
            continue
        ok = ok and plain["correct"] and traced["correct"]
        pm, tm = plain["metrics"], traced["metrics"]
        overhead = {}
        for name in ["intake_s", "intake_p50_ms", "churn_p50_ms", "sim_speed"]:
            base, with_trace = pm[name]["value"], tm["trace." + name]["value"]
            overhead[name] = (with_trace - base) / base if base else 0.0
            print(f"  tracing overhead {name:14s} {100 * overhead[name]:+7.1f} %")
        summary[w] = {"correct": plain["correct"] and traced["correct"],
                      "metrics": pm, "per_layer": tm,
                      "tracing_overhead": overhead}
    print(json.dumps(summary))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced sizes, for selftest.py")
    args = p.parse_args()

    binary = build(build_dir())
    if binary is None or not os.path.exists(binary):
        log("build failed")
        return 1
    describe = git_describe()
    if args.workload == "all":
        return run_all(binary, args, describe)
    result, line = run_one(binary, args.workload, args.seed, args.seconds,
                           args.trace, args.quick, describe, echo=True)
    if result is None:
        return 1
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
