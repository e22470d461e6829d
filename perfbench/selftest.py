#!/usr/bin/env python3
"""Self-tests of the repo benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks, on the smallest inputs (--tiny):
  * every workload prints each end-to-end metric (--trace 0) and each
    per-layer metric (--trace 1) that BENCHMARK.json names, with its unit,
    and the correctness gate passes;
  * the gate counts a failure when one reference value is perturbed by a
    relative 1e-6, and none when it is perturbed by 1e-9;
  * the bt_sweep replay reports runtime.scenarios.unattributed_frac;
  * one job's spans in the Chrome trace nest with consistent parent ids;
  * a held-out seed runs;
  * without the program's sources the benchmark fails without a result.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, *extra, seed=("--seed", "7"), cwd=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           *seed, "--seconds", "1", "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd or os.getcwd(), capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None:
        sys.stderr.write(proc.stderr[-3000:])
    return proc, result


def metrics_match(result, defs):
    got = result["metrics"]
    return set(got) == {d["name"] for d in defs} and all(
        got[d["name"]]["unit"] == d["unit"] and math.isfinite(got[d["name"]]["value"])
        for d in defs)


def spans_nest(trace_path):
    events = json.load(open(trace_path))["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    jobs = [e for e in events if e["name"] == "job"]
    if not jobs:
        return False
    req = jobs[0]["args"]["req"]
    spans = [e for e in events if e["args"]["req"] == req]
    for e in spans:
        parent = e["args"]["parent"]
        if parent == 0:
            continue
        p = by_id.get(parent)
        if p is None or p["tid"] != e["tid"] or p["args"]["req"] != req:
            return False
        if e["ts"] < p["ts"] or e["ts"] + e["dur"] > p["ts"] + p["dur"] + 1e-3:
            return False
    return len(spans) > 1


def main():
    for w in WORKLOADS:
        proc, result = run(w, "--trace", "0")
        check(result is not None and result["correct"] and result["failed"] == 0
              and metrics_match(result, BENCH["end_to_end"]),
              f"{w}: timed run prints every end-to-end metric, gate passes")
        proc, result = run(w, "--trace", "1")
        check(result is not None and result["correct"]
              and metrics_match(result, BENCH["per_layer"]),
              f"{w}: traced run prints every per-layer metric")
        if w == "bt_sweep" and result is not None:
            check("runtime.scenarios.unattributed_frac" in result["metrics"],
                  "bt_sweep: replay reports runtime.scenarios.unattributed_frac")
            check(spans_nest(os.path.join(BUILD, "traces", "trace_bt_sweep.json")),
                  "bt_sweep: one job's spans nest with consistent parent ids")

    for w in ("bt_sweep", "estimate_sweep", "chip_sim"):
        _, result = run(w, "--trace", "0", "--perturb-reference", "1e-6")
        check(result is not None and result["failed"] >= 1 and not result["correct"],
              f"{w}: a 1e-6 perturbation of one reference value fails the gate")
        _, result = run(w, "--trace", "0", "--perturb-reference", "1e-9")
        check(result is not None and result["failed"] == 0 and result["correct"],
              f"{w}: a 1e-9 perturbation passes the gate")

    _, result = run("chip_sim", "--trace", "0", seed=("--heldout-seed", "3"))
    check(result is not None and result["correct"], "chip_sim: a held-out seed runs")

    bare = os.path.join(BUILD, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bt_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180,
                          env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "without the program's sources the benchmark fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
