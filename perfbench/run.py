#!/usr/bin/env python3
"""Builds the benchmark (engine sources included) and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <bitemporal_reads|when_join|payroll_durable>
                             --seed <n> --seconds <s> --trace <0|1> [--quick]

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, both taken
relative to the repository root; a configured tree is rebuilt incrementally.
Build output is shown only when the build fails.  The benchmark's own
standard output is passed through: its last line is the JSON result.
"""

import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    build = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    steps = []
    if not (build / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 2
    binary = build / "perfbench"
    try:
        done = subprocess.run([str(binary)] + sys.argv[1:], cwd=root,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
