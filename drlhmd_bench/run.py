#!/usr/bin/env python3
"""Build drlhmd_bench from source and run one workload.

Usage (from the repository root):

    python3 drlhmd_bench/run.py --workload serve_steady --seed 1 \
        --seconds 8 --trace 0

The first call configures and builds a Release tree under .bench_build/;
later calls only re-check it.  Build output goes to stderr, so the last
stdout line is the benchmark's JSON result.  With --trace 1 the Chrome
trace and per-layer JSON land in .bench_build/drlhmd_bench/traces/.
Exits non-zero, printing no result, when the sources cannot be built.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_steady", "serve_peak", "serve_adaptive", "train_fleet"]
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the benchmark binary; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources under {ROOT}/src")
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "drlhmd_bench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work = os.path.join(ROOT, ".bench_build", "drlhmd_bench")
    build_dir = os.path.join(work, "build")
    if not build(build_dir):
        return 1

    cmd = [os.path.join(build_dir, "drlhmd_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--spec", os.path.join(ROOT, "BENCHMARK.json"),
           "--tmp-root", os.path.join(work, "tmp")]
    if args.trace:
        traces = os.path.join(work, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", os.path.join(
            traces, f"{args.workload}-{args.seed}.trace.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
