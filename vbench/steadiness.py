#!/usr/bin/env python3
"""Run benchmark workloads repeatedly and report how steady each metric is.

    python3 vbench/steadiness.py [--workloads a,b] [--seeds 42,7] [--repeat 5]
    python3 vbench/steadiness.py --distinct 10     # seeds 1..10, once each

For every workload and seed group it prints each end-to-end metric's
median, first and third quartile (statistics.quantiles(n=4)) and the
relative spread (q3 - q1) / median, next to the bound BENCHMARK.json sets
and whether the spread stays under a third of it.  --seeds/--repeat runs
each listed seed --repeat times (the tuning seed 42 and the held-out seed 7
by default); --distinct N runs seeds 1..N once each.  Each group is run
--sets times (default 2), one whole set after the other, and the drift of
every median from the first set to each later one is printed next to the
bound, which caps how much worse a median may get.  Every raw result goes
to --json (default .bench_build/steadiness.json).  Run from the root of a
checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def report(label, results, bounds):
    """Print the spread table of one set; returns each metric's median."""
    print("\n%s: %d runs, correct %s, failed ops %d" %
          (label, len(results), all(r["correct"] for r in results),
           sum(r["failed"] for r in results)))
    print("  %-14s %12s %12s %12s %8s %7s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    medians = {}
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        med = medians[name] = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        print("  %-14s %12.6g %12.6g %12.6g %7.2f%% %7g %s" %
              (name, med, q1, q3, 100 * spread, bound,
               "ok" if spread < bound / 3 else "WIDE"))
    return medians


def report_drift(label, first, later, metrics):
    """Print how far each median moved from set 1 to a later set."""
    print("\n%s: median drift from set 1" % label)
    for m in metrics:
        name = m["name"]
        drift = (later[name] - first[name]) / first[name]
        worse = drift if m["better"] == "lower" else -drift
        print("  %-14s %+8.2f%% %7g %s" %
              (name, 100 * drift, m["bound"],
               "ok" if worse <= m["bound"] else "WORSE"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", default="42,7")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--distinct", type=int, default=0)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--json", default=os.path.join(
        ROOT, ".bench_build", "steadiness.json"))
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (opts.workloads.split(",") if opts.workloads else
                 [w["name"] for w in bench["workloads"]])
    if opts.distinct:
        groups = [("seeds 1..%d" % opts.distinct,
                   list(range(1, opts.distinct + 1)))]
    else:
        groups = [("seed %s x%d" % (s, opts.repeat), [int(s)] * opts.repeat)
                  for s in opts.seeds.split(",")]

    raw = {}
    for workload in workloads:
        for label, seeds in groups:
            medians = []
            for k in range(1, opts.sets + 1):
                key = "%s / %s / set %d" % (workload, label, k)
                raw[key] = [run_once(workload, s, bench["run_seconds"])
                            for s in seeds]
                medians.append(report(key, raw[key], bounds))
            for k, later in enumerate(medians[1:], start=2):
                report_drift("%s / %s / set %d" % (workload, label, k),
                             medians[0], later, bench["end_to_end"])
    os.makedirs(os.path.dirname(opts.json), exist_ok=True)
    with open(opts.json, "w") as f:
        json.dump(raw, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
