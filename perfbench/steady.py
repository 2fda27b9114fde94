#!/usr/bin/env python3
"""Steadiness check for one workload: two separate sets of repeated runs.

Usage, from the root of the repository:

    python3 perfbench/steady.py --workload <name> [--first-seed 1]

It runs two sets of ten runs. Each set runs the benchmark command from
BENCHMARK.json once per seed (first-seed .. first-seed + 9, the same seeds
in both sets) with --trace 0 and the file's run_seconds; a later claim can
be re-checked on seeds not used while writing it by moving --first-seed. For every end-to-end metric it prints
each set's median and quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, and flags:

  SPREAD  a spread above the metric's bound;
  TARGET  a spread above a third of the bound;
  DRIFT   a second-set median worse than the first by more than the bound;
  SHORT   a metric resting on a timed interval shorter than 2 s.

It also checks that the share of failed operations is identical in every
run. Exits 1 if any SPREAD, DRIFT, SHORT or failed-share difference shows.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

SHORTEST_INTERVAL_S = 2.0
SETS = 2
RUNS = 10


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {p.returncode})")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"run reported incorrect output: seed {seed}")
    m = re.search(r"intervals: (.*)$", p.stderr, re.M)
    intervals = json.loads(m.group(1)) if m else {}
    return result, intervals


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    sets = []
    for s in range(SETS):
        runs = []
        for seed in seeds:
            result, intervals = run_once(bench, args.workload, seed)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"set {s + 1} seed {seed}: {json.dumps(values)}", flush=True)
            runs.append((result, intervals))
        sets.append(runs)

    bad = False
    shares = {r["failed"] / r["attempted"] for runs in sets for r, _ in runs}
    if len(shares) != 1:
        print(f"FAILED-SHARE differs between runs: {sorted(shares)}")
        bad = True
    print(f"\n{args.workload}: {RUNS} runs per set, seeds {seeds[0]}..{seeds[-1]}, "
          f"{bench['run_seconds']} s per run")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        higher = metric["better"] == "higher"
        stats = [summary([r["metrics"][name]["value"] for r, _ in runs]) for runs in sets]
        flags = []
        for med, q1, q3, spread in stats:
            if spread > bound:
                flags.append("SPREAD")
            elif spread > bound / 3:
                flags.append("TARGET")
        a, b = stats[0][0], stats[1][0]
        worse = (a - b) / a if higher else (b - a) / a
        if worse > bound:
            flags.append("DRIFT")
        shortest = min(
            (min(i[name]) for _, i in sum(sets, []) if name in i), default=None
        )
        if shortest is not None and shortest < SHORTEST_INTERVAL_S:
            flags.append("SHORT")
        bad |= any(f in ("SPREAD", "DRIFT", "SHORT") for f in flags)
        cells = "  ".join(
            f"set{i + 1} median {m:.4g} q1 {lo:.4g} q3 {hi:.4g} spread {sp:.3f}"
            for i, (m, lo, hi, sp) in enumerate(stats)
        )
        short = "" if shortest is None else f"  shortest interval {shortest:.2f}s"
        print(f"  {name:<12} bound {bound:<5} {cells}  worse {worse:+.3f}{short}  {' '.join(flags)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
