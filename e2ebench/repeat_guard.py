#!/usr/bin/env python3
"""Exact-repeat guard for bench_e2e's simulator workloads.

On net::Simulator every counted metric -- bytes and messages per query,
completion, virtual latency, allocation counts and every per-layer count --
must repeat exactly for a seed, tracing must not change the end-to-end
counts, and a second seed must change them (a claim resting on a count
needs that second seed). Run from the repository root:

  python3 e2ebench/repeat_guard.py

Builds like run.py, runs only the count windows (--count-only), and exits
non-zero on any violation or wrong answer.
"""
import json
import subprocess
import sys

import run

WORKLOADS = ("mix-sim", "churn-crowd-sim")
SEEDS = (11, 11, 12)


def counts(binary, workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "1", "--trace", "1", "--count-only"],
        capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result["correct"], {k: v["value"] for k, v in
                               result["counts"].items()}


def main():
    binary = run.build()
    if binary is None:
        return 2
    problems = []
    for workload in WORKLOADS:
        (ok_a, a), (ok_b, b), (ok_c, c) = (counts(binary, workload, s)
                                           for s in SEEDS)
        if not (ok_a and ok_b and ok_c):
            problems.append("%s: a run returned a wrong answer" % workload)
        diff = sorted(k for k in a if a[k] != b.get(k))
        if diff:
            problems.append("%s: seed %d differs between runs in %s" %
                            (workload, SEEDS[0], ", ".join(diff)))
        for k in ("complete_pct", "hp_complete_pct", "bytes_per_query",
                  "msgs_per_query"):
            if a[k] != a["traced." + k]:
                problems.append("%s: tracing changed %s" % (workload, k))
        if a == c:
            problems.append("%s: seeds %d and %d give identical counts" %
                            (workload, SEEDS[0], SEEDS[2]))
        print("%s: %d counted metrics, %d differ between seeds %d and %d" %
              (workload, len(a), sum(a[k] != c.get(k) for k in a), SEEDS[0],
               SEEDS[2]))
    for p in problems:
        print("FAIL " + p)
    print("repeat guard: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
