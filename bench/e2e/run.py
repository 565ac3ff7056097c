#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload.

    python3 bench/e2e/run.py --workload ra_naive --seed 1 --trace 0

Configures bench/e2e (its own CMake project: the library and incdb_serve from
this checkout's sources, in Release, plus the incdb_e2e driver) into
.bench_build/e2e, builds it (a no-op when up to date), then runs incdb_e2e.
incdb_e2e's report goes to stdout and its last line is the result JSON;
build output goes to stderr. Dumps and traces land in .bench_build/e2e/run.

Exit status: that of incdb_e2e (0 = every answer right), or 2 when the
sources are missing or the build fails, 3 when the run times out.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("src/CMakeLists.txt", "tools/incdb_serve.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("missing %s: run from a full checkout" % needed)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "incdb_e2e", "incdb_serve"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    workdir = os.path.join(BUILD, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD, "incdb_e2e"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds,
           "--server=" + os.path.join(BUILD, "incdb_serve"),
           "--workdir=" + workdir]
    if args.trace:
        cmd.append("--trace")
    sys.stdout.flush()
    # Its own process group, so stopping it also stops the servers it
    # started, whether the run times out or run.py itself is terminated.
    proc = subprocess.Popen(cmd, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S, 3)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
