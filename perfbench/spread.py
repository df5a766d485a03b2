#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--seeds 1-10] [--workloads lsq_dd,...]

Runs the benchmark once per seed and workload (untraced, run_seconds from
BENCHMARK.json) and prints, per metric, the median and the interquartile
range as a share of the median next to the metric's bound.  A benchmark is
steady when every spread except setup_s stays below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                print("%s seed %d: failed (exit %d)\n%s" %
                      (w, seed, out.returncode, out.stdout[-2000:]))
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s (%d seeds)" % (w, len(values["setup_s"])))
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = name == "setup_s" or spread < bounds[name] / 3
            ok = ok and steady
            print("  %-16s median %-12.6g spread %6.3f  bound %.2f %-8s %s" %
                  (name, med, spread, bounds[name], "" if steady else "UNSTEADY",
                   " ".join("%.4g" % x for x in v)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
