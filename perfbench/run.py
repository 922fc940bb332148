#!/usr/bin/env python3
"""Builds and runs the owner->provider benchmark (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload outsource_batch --seed 1 \
        --seconds 25 --trace 0

The first run configures and builds perfbench/ (the repository's src/ tree
plus the benchmark program) under .bench_build/; later runs only rebuild
what changed. Build output goes to stderr. The benchmark's own output goes
to stdout; its last line is the JSON result. A traced run (--trace 1) also
writes Chrome-trace JSON and a layer self-time table under
.bench_build/perfbench-out/.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        fail("no source tree at " + os.path.join(ROOT, "src") +
             "; run from the root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's own test")
    args = parser.parse_args()

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", workdir, "--out-dir", OUT_DIR]
    if args.tiny:
        command.append("--tiny")
    sys.stdout.flush()
    child = subprocess.Popen(command)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    except BaseException:
        child.kill()
        child.wait()
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
