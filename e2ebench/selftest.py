#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, on reduced sizes (--quick).

    python3 e2ebench/selftest.py

For every workload, on two seeds and in both trace modes, checks that
run.py exits 0, that the last stdout line is a result object whose metrics
are exactly the ones BENCHMARK.json names (with their units), that every
output check passed, and that a traced run leaves a parseable chrome trace.
Then checks that a directory holding only BENCHMARK.json and e2ebench/ (no
program sources) makes run.py fail without printing a result.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = [1, 2]


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def check_run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace), "--quick"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    name = f"{workload} seed {seed} trace {trace}"
    if r.returncode != 0:
        return fail(f"{name}: exit {r.returncode}\n{r.stderr[-2000:]}")
    result = json.loads(r.stdout.strip().split("\n")[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return fail(f"{name}: keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        failures = [l for l in r.stdout.split("\n") if "FAILED" in l]
        return fail(f"{name}: output checks failed: {failures}")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in want}
    got = result["metrics"]
    if sorted(got) != sorted(units):
        return fail(f"{name}: metrics {sorted(set(got) ^ set(units))} differ")
    for k, m in got.items():
        if m["unit"] != units[k] or not math.isfinite(m["value"]):
            return fail(f"{name}: {k} = {m}")
    if trace:
        bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        path = os.path.join(ROOT, bdir, "results",
                            f"{workload}-seed{seed}-trace1.trace.json")
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        if not any(e.get("pid") == 3 for e in events):
            return fail(f"{name}: no benchmark spans in {path}")
    print(f"ok   {name}: {result['attempted']} checks")
    return 0


def check_bare_directory(spec):
    """Only BENCHMARK.json and the benchmark's paths: must fail cleanly."""
    bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bare = os.path.join(ROOT, bdir, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    r = subprocess.run(spec["command"] + ["--workload", "usecase_mix", "--seed",
                                          "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, env=env, capture_output=True, text=True,
                       timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if r.returncode == 0 or '"correct"' in r.stdout:
        return fail("bare directory: run.py did not fail")
    print(f"ok   bare directory fails with exit {r.returncode}")
    return 0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    # fabric_churn too, though BENCHMARK.json does not gate it (README.md).
    for w in ["usecase_mix", "leaf_density", "fabric_churn"]:
        for seed in SEEDS:
            for trace in (0, 1):
                failures += check_run(spec, w, seed, trace)
    failures += check_bare_directory(spec)
    print("selftest:", "PASS" if failures == 0 else f"{failures} FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
