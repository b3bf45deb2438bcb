#!/usr/bin/env python3
"""Steadiness report: run workloads k times and compare spreads to bounds.

    python3 qbench/steady.py [--runs K] [--workloads a,b] [--seed-base N]
                             [--seconds S] [--trace 0|1] [--against M]

Each workload runs K times through run.py, with seeds seed-base ..
seed-base+K-1. For every metric the report prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)), the spread (q3 - q1) /
median, and, for end-to-end metrics, the bound from BENCHMARK.json and
whether the spread stays below a third of it. Raw values go to
.bench_run/steady-<workload>-trace<T>-seed<N>.json.

--against M compares each end-to-end median with the one of an earlier set
run with --seed-base M (read from its raw-values file) and prints the change
in the metric's worse direction as a share of the earlier median, against
the bound.

The exit code is 1 when any run fails, any spread reaches a third of its
bound, or a median got worse than the earlier set's by more than its bound.
setup_s is the one exception to the spread rule: set-up is a few short
repetitions per run, so its spread is reported but not gated; its median is
still compared with --against.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    loaded = any(l.startswith("calibration") and '"loaded": true' in l
                 for l in lines)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out.returncode, result, loaded


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--against", type=int, default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower"
                    for m in bench["end_to_end"]}
    raw = os.path.join(ROOT, ".bench_run", "steady-%s-trace%d-seed%d.json")
    ok = True
    for workload in args.workloads.split(","):
        values, bad, loaded = {}, 0, 0
        for i in range(args.runs):
            rc, result, was_loaded = run_once(workload, args.seed_base + i,
                                              args.seconds, args.trace)
            loaded += was_loaded
            if rc != 0 or result is None or not result["correct"]:
                bad += 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
        with open(raw % (workload, args.trace, args.seed_base), "w") as f:
            json.dump(values, f, indent=1)
        before = {}
        if args.against is not None:
            with open(raw % (workload, args.trace, args.against)) as f:
                before = json.load(f)
        print("== %s: %d runs, %d failed, %d loaded ==" %
              (workload, args.runs, bad, loaded))
        print("  %-28s %12s %12s %12s %8s %7s  %-20s %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict",
               "vs seed-base %s" % args.against if before else ""))
        ok = ok and bad == 0
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            verdict, versus = "", ""
            if name in bounds:
                steady = spread < bounds[name] / 3
                verdict = "steady" if steady else "SPREAD"
                if name == "setup_s":
                    verdict += " (not gated)"
                elif not steady:
                    ok = False
            if name in bounds and len(before.get(name, [])) >= 2:
                then = statistics.median(before[name])
                worse = (med - then) / then
                if not lower_better[name]:
                    worse = -worse
                agree = worse <= bounds[name]
                versus = "%+.2f%% worse %s" % (100 * worse,
                                              "agrees" if agree else "DRIFT")
                ok = ok and agree
            print("  %-28s %12.6g %12.6g %12.6g %7.2f%% %7s  %-20s %s" %
                  (name, med, q1, q3, 100 * spread,
                   "%.2f" % bounds[name] if name in bounds else "-", verdict,
                   versus))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
