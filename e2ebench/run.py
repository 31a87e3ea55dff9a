#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload.

Usage (from the repository root):
  python3 e2ebench/run.py --workload serve|train|loop --seed N \
      --seconds S --trace 0|1

The first call configures and builds leakdet from ../src into
.bench_build/e2ebench (CMake + Ninja, RelWithDebInfo); later calls only
re-run the incremental build. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "leakdet_e2e")
# A run of the program must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build(env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD, "--target", "leakdet_e2e",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, env=env).returncode:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["serve", "train", "loop"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("leakdet sources (src/) not found next to " + HERE)

    # Keep the compiler's and the program's temporary files in the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build(env)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The program writes its scratch state under .bench_run in the working
    # directory (the checkout root) and removes it before exiting.
    try:
        result = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark program timed out")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
