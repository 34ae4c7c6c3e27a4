#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 benchmark/run.py --workload kv_read_heavy --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
benchmark/ (which compiles ../src) into build-benchmark/; later calls only
let the build tool confirm it is up to date. Build output goes to stderr,
so the last stdout line is fompi_bench's JSON result. With --trace 1 the
Chrome trace lands in build-benchmark/<workload>.trace.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-benchmark")
BENCH = os.path.join(BUILD, "fompi_bench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources at src/; nothing to benchmark")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "fompi_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd[-1] = os.path.join(BUILD, f"{args.workload}.trace.json")
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: fompi_bench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
