#!/usr/bin/env python3
"""Steadiness of the end-to-end benchmark: run each workload on seeds
first-seed .. first-seed+runs-1, one run after another, and print per
end-to-end metric the median, the quartiles and the quartile spread as a
share of the median. The bounds in BENCHMARK.json are derived from these
spreads. Each run measures BENCHMARK.json's run_seconds.

    python3 e2ebench/steady.py [--runs 10] [--sets 1] [--first-seed 1]
                               [--workloads serve_churn,serve_query,paper_sweep]

With --sets 2 or more, the whole set of runs is repeated on the same seeds
and each metric's median in every later set is compared with the first set's:
the change in the metric's worse direction, as a share of the first median,
must stay within the metric's bound, and the share of failed operations must
be the same. The exit code is 1 when a comparison fails or a run fails.

Run from the repository root. Runs never overlap, so they do not compete for
cores.
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    return lines[0], json.loads(lines[-1])


def run_set(workload, seeds, seconds):
    """Runs on every seed: (header, values by metric, units, failed, attempted)."""
    values, units = {}, {}
    failed = attempted = 0
    header = ""
    for seed in seeds:
        header, result = run_once(workload, seed, seconds)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return header, values, units, failed, attempted


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="serve_churn,serve_query,paper_sweep")
    opt = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = range(opt.first_seed, opt.first_seed + opt.runs)
    ok = True
    for workload in opt.workloads.split(","):
        first = None
        for k in range(opt.sets):
            header, values, units, failed, attempted = run_set(workload, seeds, seconds)
            print("%s set %d: %d runs, seeds %d..%d, %d s each; %s" % (
                workload, k + 1, opt.runs, seeds[0], seeds[-1], seconds,
                header.split(" workload=")[0]))
            print("  failed %d of %d operations (%.6f)" % (failed, attempted, failed / attempted))
            print("  %-12s %14s %14s %14s %9s %9s" % (
                "metric", "q1", "median", "q3", "iqr/med", "vs set 1"))
            medians = {}
            for name, v in values.items():
                q1, med, q3 = statistics.quantiles(v, n=4)
                medians[name] = med
                change = ""
                if first is not None:
                    m = metrics[name]
                    base = first[0][name]
                    worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                    change = "%+8.1f%%" % (100 * (med - base) / base)
                    if worse > m["bound"]:
                        change += " WORSE than bound %.2f" % m["bound"]
                        ok = False
                print("  %-12s %14.6g %14.6g %14.6g %8.1f%% %s  %s" % (
                    name, q1, med, q3, 100 * (q3 - q1) / med, change, units[name]))
            if first is None:
                first = (medians, failed / attempted)
            elif failed / attempted != first[1]:
                print("  failed share differs from set 1")
                ok = False
            sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
