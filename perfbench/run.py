#!/usr/bin/env python3
"""Builds the whole-run benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload flash-mice --seed 1 --seconds 20 --trace 0

The benchmark is configured as its own CMake project (perfbench/CMakeLists.txt)
in .bench_build/perfbench with the repository's default build type
(RelWithAssert) and built there. The benchmark binary then runs as a child
process (so its peak RSS is its own), takes the same arguments and prints the
result JSON as its last stdout line; this script exits with its exit code.
Build output goes to stderr. Spans of a traced run are written under
.bench_build/perfbench/traces.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "flash_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD],
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "flash_perfbench"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(BUILD, "traces")]
    sys.stdout.flush()
    sys.exit(subprocess.run([BINARY] + args).returncode)


if __name__ == "__main__":
    main()
