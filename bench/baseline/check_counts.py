#!/usr/bin/env python3
"""Diffs bench_e2e's counted metrics against the committed baseline.

Each BENCH_e2e_<workload>_<seed>.json beside this script is the result
line of

  bench_e2e --workload <workload> --seed <seed> --seconds 1 --trace 1 \\
            --count-only

on net::Simulator, where every count repeats exactly for a seed
(e2ebench/repeat_guard.py checks that). Run from the repository root:

  python3 bench/baseline/check_counts.py           # check
  python3 bench/baseline/check_counts.py --write   # rewrite the files

The check builds bench_e2e from this checkout (as e2ebench/run.py does),
reruns the count window of every baseline file and exits non-zero when
the answers are not all correct, when a protocol count (bytes, messages,
parses, serializations, hops, pruned rows, virtual latency: every count
whose name does not contain "allocs") differs from the file at all, or
when an allocation count moves by more than ALLOC_TOLERANCE of its
baseline value: allocation counts depend on the standard library, the
protocol counts only on the code. A change that moves a count rewrites
the files with --write and explains each moved count in CHANGES.md.
"""
import argparse
import glob
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "e2ebench"))
import run  # noqa: E402  (e2ebench/run.py: the benchmark's own build)

ALLOC_TOLERANCE = 0.05
NAME = re.compile(r"BENCH_e2e_(?P<workload>[a-z-]+)_(?P<seed>\d+)\.json$")


def count_window(binary, workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "1", "--trace", "1", "--count-only"],
        capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def differences(base, now):
    """The lines that make `now` fail against `base`."""
    problems = []
    for key in ("correct", "attempted", "failed"):
        if now[key] != base[key]:
            problems.append("%s: %s -> %s" % (key, base[key], now[key]))
    old = {k: v["value"] for k, v in base["counts"].items()}
    new = {k: v["value"] for k, v in now["counts"].items()}
    for name in sorted(set(old) | set(new)):
        if name not in new or name not in old:
            problems.append("%s: %s -> %s" % (name, old.get(name, "absent"),
                                              new.get(name, "absent")))
        elif "allocs" in name:
            limit = ALLOC_TOLERANCE * abs(old[name])
            if abs(new[name] - old[name]) > limit:
                problems.append("%s: %s -> %s (beyond %.0f%%)" %
                                (name, old[name], new[name],
                                 100 * ALLOC_TOLERANCE))
        elif new[name] != old[name]:
            problems.append("%s: %s -> %s" % (name, old[name], new[name]))
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true",
                   help="rewrite the baseline files from this checkout")
    args = p.parse_args()
    files = sorted(glob.glob(os.path.join(HERE, "BENCH_e2e_*.json")))
    if not files:
        print("check_counts: no BENCH_e2e_*.json in %s" % HERE)
        return 2
    binary = run.build()
    if binary is None:
        return 2
    failed = False
    for path in files:
        m = NAME.search(os.path.basename(path))
        now = count_window(binary, m["workload"], int(m["seed"]))
        if args.write:
            with open(path, "w") as f:
                json.dump(now, f, indent=1)
                f.write("\n")
            print("wrote %s" % os.path.basename(path))
            continue
        with open(path) as f:
            problems = differences(json.load(f), now)
        print("%s: %s" % (os.path.basename(path),
                          "%d differ" % len(problems) if problems else "ok"))
        for line in problems:
            print("  " + line)
        failed = failed or bool(problems)
    print("count baseline: %s" % ("FAILED" if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
