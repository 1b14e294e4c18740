#!/usr/bin/env python3
"""Build the meshroute end-to-end benchmark from source and run one workload.

    python3 e2ebench/run.py --workload serve_churn|serve_query|paper_sweep \
        --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py gen --workload W --seed N --out DIR

Run from the repository root. The first run configures and builds the
benchmark package (e2ebench/CMakeLists.txt, which compiles ../src) into
.bench_build/ in Release mode; later runs only rebuild what changed. Before
every run the self-test of the benchmark's correctness checks must pass.
Build output goes to stderr, so the last line of stdout is the benchmark's
result object. Scratch files (journals, span dumps) go to .bench_build/work.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def quiet(cmd):
    """Run a build step with its output on stderr; True when it succeeded."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: no meshroute sources at %s/src" % ROOT, file=sys.stderr)
        return False
    if not quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]):
        return False
    return quiet(["cmake", "--build", BUILD, "--target", "e2e_bench", "e2e_checks_test",
                  "-j", "4"])


def main():
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    if not quiet([os.path.join(BUILD, "e2e_checks_test")]):
        print("e2ebench: the correctness checks fail their self-test", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if not args or args[0] != "gen":
        args = args + ["--workdir", os.path.join(BUILD, "work")]
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "e2e_bench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
