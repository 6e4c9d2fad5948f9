#!/usr/bin/env python3
"""Build and run the lmbench++ end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload echo_closed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 4      # every workload, one process
    python3 perfbench/run.py --self-test                     # the harness's own tests

The harness (perfbench/src) is compiled from the checkout's sources into
.bench_build/perfbench on first use.  Build output goes to stderr, so the
last line of stdout is always the harness's JSON result.  Spans and the
full per-run report land in .bench_out/.  Exits non-zero without a result
when the sources are missing or do not build.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target, "-j4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main(argv):
    target = "perfbench_tests" if "--self-test" in argv else "perfbench"
    if not build(target):
        return 2
    if target == "perfbench_tests":
        args = [a for a in argv if a != "--self-test"]
        return subprocess.run([str(BUILD / target)] + args, cwd=ROOT).returncode
    return subprocess.run([str(BUILD / target)] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
