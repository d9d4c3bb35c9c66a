#!/usr/bin/env python3
"""Build the QEI simulator from this checkout and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <paper-matrix|sim-closed|serving> \
        --seed <n> --seconds <s> --trace <0|1> [--threads <n>]

The first call configures and compiles the simulator libraries and the
benchmark program into .bench_build/perfbench (Release); later calls
only re-check that build. Build output goes to standard error, so the
last line of standard output is the program's JSON result. Every
argument is passed to the program unchanged; see README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "qei_perfbench")

# A run measures for --seconds and must end within 180 s; the bound
# leaves room for the slowest repetition to finish.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then bring the benchmark target up to date."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found in {ROOT}; the "
                  "benchmark builds the simulator from the checkout's "
                  "sources", file=sys.stderr)
            return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD, "--target", "qei_perfbench",
                "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        # Traced runs write their spans here unless --spans is given.
        spans = ["--spans", os.path.join(BUILD, "spans.json")]
        return subprocess.run([BINARY] + spans + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
