#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload ntfx_k10 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --short

The benchmark and the library sources it links are compiled into
`.bench_build/` under the repository root (the first run configures and
builds; later runs only check that the build is current). Build output goes
to `.bench_build/build.log`; on a failed build its tail is printed to
standard error and the script exits with a non-zero code without printing a
result. Every other argument is passed to the benchmark binary, whose last
line of standard output is the run's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LOG = os.path.join(BUILD, "build.log")
BINARY = os.path.join(BUILD, "alsmf_perfbench")


def step(cmd):
    """Runs one build command with its output appended to the build log."""
    with open(LOG, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        return subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if step(configure) != 0:
            return False
    jobs = str(max(1, os.cpu_count() or 1))
    return step(["cmake", "--build", BUILD, "--target", "alsmf_perfbench", "-j", jobs]) == 0


def main():
    # Compiler and benchmark temporaries stay inside the checkout.
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    if shutil.which("cmake") is None:
        print("error: cmake not found", file=sys.stderr)
        return 1
    if not build():
        with open(LOG) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        print("error: benchmark build failed, see " + LOG, file=sys.stderr)
        return 1
    args = [BINARY] + sys.argv[1:] + ["--scratch", os.path.join(BUILD, "scratch")]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
