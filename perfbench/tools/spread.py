#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/tools/spread.py [--seeds 1,2,3] [--workloads a,b]
                                      [--trace 0|1] [--out FILE]
                                      [--against FILE]

For every workload and seed it runs perfbench/run.py with BENCHMARK.json's
run_seconds, checks that the result line carries exactly the metrics
BENCHMARK.json lists, and prints per metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median
next to the metric's bound.  --out writes the same figures as JSON (the
format of perfbench/reference/); --against FILE compares each median
with that earlier file's.  Exit status 1 when a run fails, a metric is
missing, an end-to-end spread other than setup_s exceeds its bound, or a
median is worse than the earlier one by more than the bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--against",
                        help="earlier --out file of the same seeds")
    args = parser.parse_args()
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["workloads"]

    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = [d["name"] for d in defs]
    seeds = [int(s) for s in args.seeds.split(",")]
    ok = True
    report = {"nproc": os.cpu_count(), "machine": platform.machine(),
              "run_seconds": bench["run_seconds"], "seeds": seeds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {n: [] for n in names}
        header = ""
        for seed in seeds:
            code, result, stdout = run_once(workload, seed,
                                            bench["run_seconds"], args.trace)
            header = stdout.splitlines()[0] if stdout else header
            if code != 0 or not result or not result.get("correct"):
                print("FAIL %s seed %d: exit %d" % (workload, seed, code))
                ok = False
                continue
            if sorted(result["metrics"]) != sorted(names):
                print("FAIL %s seed %d: metrics %s != BENCHMARK.json"
                      % (workload, seed, sorted(result["metrics"])))
                ok = False
                continue
            for n in names:
                values[n].append(result["metrics"][n]["value"])
        print("== %s (%d seeds) %s" % (workload, len(seeds), header))
        rows = {}
        for d in defs:
            v = values[d["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = d.get("bound")
            flag = ""
            if bound is not None:
                if spread > bound and d["name"] != "setup_s":
                    flag = "  OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "  above bound/3"
            if earlier and bound is not None:
                before = earlier[workload]["metrics"][d["name"]]["median"]
                worse = (before - med if d["better"] == "higher"
                         else med - before) / before
                flag += "  vs earlier %+.4f" % -worse
                if worse > bound:
                    flag += " WORSE THAN BOUND"
                    ok = False
            print("  %-40s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f"
                  " bound %s%s" % (d["name"], med, q1, q3, spread, bound,
                                   flag))
            rows[d["name"]] = {"unit": d["unit"], "median": med, "q1": q1,
                               "q3": q3, "spread": spread, "values": v}
        report["workloads"][workload] = {"metrics": rows}
        # "... | nproc=4 build=Release compiler=GNU 12.2.0"
        host = header.partition("| ")[2]
        if host:
            report["nproc"] = int(host.split("nproc=")[1].split()[0])
            report["build_type"] = host.split("build=")[1].split()[0]
            report["compiler"] = host.split("compiler=")[1].strip()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
