#!/usr/bin/env python3
"""Builds the paper benchmark on first use, then runs one workload.

    python3 paperbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The harness (paperbench.cpp) is compiled
against the repo's src/ tree into .bench_build/paperbench; build output goes
to stderr so that the last line of stdout is the harness's JSON result.
Exits non-zero, without a result, when the build or any check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "paperbench")
BINARY = os.path.join(BUILD, "paperbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "paperbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("paperbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
