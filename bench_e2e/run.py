#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a segram checkout. The first call configures and
builds the segram CLI and bench_e2e (Release) into .bench_build; later
calls only let CMake confirm the build is current. Every argument is
passed to bench_e2e, whose last stdout line is the result JSON. Build
output goes to stderr. Exits non-zero, printing no result, when the
build fails (for example when the repository sources are missing).
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def build() -> bool:
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j4",
                  "--target", "bench_e2e", "segram_cli"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main() -> int:
    if not build():
        print("bench_e2e: build failed", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    command = [str(BUILD / "bench_e2e"), *sys.argv[1:]]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
