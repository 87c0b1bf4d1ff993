#!/usr/bin/env python3
"""Builds dnnperf_bench from this checkout and runs it.

    python3 bench/suite/run.py --workload train_compute --seed 1 --seconds 25 --trace 0

The program's libraries and dnnperf_bench are compiled from the checkout's
sources into .bench_build/ at the checkout root (configured once, rebuilt
incrementally); build output goes to stderr. Every argument is handed to
dnnperf_bench unchanged, from the checkout root, and its exit code is
returned. The last stdout line of a workload run is its JSON result.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SUITE = os.path.join(ROOT, "bench", "suite")
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", SUITE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                     + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "dnnperf_bench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    build()
    binary = os.path.join(BUILD, "dnnperf_bench")
    sys.exit(subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
