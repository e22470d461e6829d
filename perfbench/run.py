#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --heldout-seed <n> ...

Workloads: bt_sweep, estimate_sweep, serve_mix, chip_sim (see METRICS.md).
The build goes to $CARGO_TARGET_DIR if set, else .bench_build/, both
relative to the current directory. The last line of standard output is
the result JSON; build logs and the metric table go to standard error.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"program sources not found under {ROOT}/src")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # A build directory left by another checkout or commit may not build
    # incrementally; the second attempt starts from an empty one.
    for attempt in range(2):
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                return False
        cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode == 0:
            return True
        if attempt == 0:
            log("incremental build failed; building in an empty directory")
            shutil.rmtree(build_dir, ignore_errors=True)
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    seed = parser.add_mutually_exclusive_group(required=True)
    seed.add_argument("--seed", type=int)
    seed.add_argument("--heldout-seed", type=int,
                      help="draw inputs from the held-out pools")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs (self-tests)")
    parser.add_argument("--perturb-reference", type=float, default=0.0,
                        help="self-test: perturb one reference value by this share")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        log("build failed")
        return 1
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--data-dir", HERE, "--out-dir", out_dir]
    if args.heldout_seed is not None:
        cmd += ["--heldout-seed", str(args.heldout_seed)]
    else:
        cmd += ["--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb_reference:
        cmd += ["--perturb-reference", repr(args.perturb_reference)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
