#!/usr/bin/env python3
"""Steadiness self-check for the repo benchmark.

    python3 perfbench/steadiness.py

Runs BENCHMARK.json's command on every workload in SETS sets of RUNS
invocations, every invocation with its own seed (set k uses seeds
k*RUNS .. k*RUNS+RUNS-1, so each set is held out from the others). For
each end-to-end metric it prints every set's median and its spread: the
distance between the first and third quartile as a share of the median,
as statistics.quantiles(values, n=4) gives them. It fails (exit 1) when a
spread exceeds the metric's bound, when a later set's median differs
from the first set's by more than the bound in either direction, or when
a run fails or reports correct=false. One --trace 1 run per workload is
made too and only checked for correctness and for every per-layer metric.

Run it from the repository root; it takes about 5 minutes per workload
and set.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
SETS = 2


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: {lines[-1]}")
    return result["metrics"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        traced = run_once(bench, workload, 0, 1)
        missing = [m["name"] for m in bench["per_layer"] if m["name"] not in traced]
        if missing:
            print(f"{workload}: traced run lacks {missing}")
            ok = False
        metrics = {m["name"]: [] for m in bench["end_to_end"]}
        for k in range(SETS):
            runs = [run_once(bench, workload, s, 0)
                    for s in range(k * RUNS, (k + 1) * RUNS)]
            for name, sets in metrics.items():
                sets.append([r[name]["value"] for r in runs])
        for m in bench["end_to_end"]:
            bound = m["bound"]
            row = []
            first_median = None
            for values in metrics[m["name"]]:
                sp, med = spread(values)
                first_median = med if first_median is None else first_median
                drift = (med - first_median) / first_median
                bad = sp > bound or abs(drift) > bound
                ok = ok and not bad
                row.append(f"median {med:.6g} spread {sp:6.2%} drift {drift:+6.2%}"
                           + (" FAIL" if bad else ""))
            print(f"{workload:14s} {m['name']:12s} bound {bound:5.0%} | "
                  + " | ".join(row), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
