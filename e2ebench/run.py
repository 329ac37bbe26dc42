#!/usr/bin/env python3
"""End-to-end benchmark entry point (the command in BENCHMARK.json).

Builds this directory's CMake package -- the mqp library from ../src plus
the bench_e2e program -- into $CARGO_TARGET_DIR (default .bench_build) under
the checkout root, then runs one workload:

  python3 e2ebench/run.py --workload mix-sim --seed 1 --seconds 10 --trace 0

Build output goes to stderr; the last line of stdout is bench_e2e's JSON
result. Spans of a traced run are written to <build dir>/spans/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mix-sim", "mix-threaded", "churn-crowd-sim")
# A run must end within 180 s; leave room for the build step's no-op.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build():
    """Configures and builds bench_e2e; returns its path, or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "mqp", "mqp.h")):
        print("run.py: no mqp source tree at %s/src" % ROOT, file=sys.stderr)
        return None
    out = os.path.join(build_dir(), "e2ebench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs]):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            print("run.py: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "bench_e2e")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 2
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-dir", spans]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: bench_e2e exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
