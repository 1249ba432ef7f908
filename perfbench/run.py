#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the FluentPS libraries from
src/) as a Release build under .bench_build/perfbench, then runs one
workload. Build output goes to stderr; the benchmark's own report goes to
stdout and ends with one JSON line. A traced run also writes its spans as
Perfetto JSON to .bench_build/traces/<workload>.json.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("dense-tcp", "sync-n64", "chain-rw", "sparse-zipf")
RUN_TIMEOUT_S = 170


def build(root: str, build_dir: str) -> str:
    # Configuring every time is cheap on an unchanged tree and recovers a
    # build directory whose earlier configure failed.
    subprocess.run(
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.path.join(root, ".bench_build")
    try:
        binary = build(root, os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
