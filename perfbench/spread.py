#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
median and quartile spread (the distance between the first and third
quartile as a share of the median), against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workload sweep [--seeds 1-10] [--seconds S]
        [--save DIR]

The last line gives the largest spread / bound over the metrics and,
apart, that of setup_s, whose bound holds the drift of its median between
two sets of runs rather than its spread.  With --save, each run's standard
output is kept as DIR/<workload>-s<N>.txt, ready for perfbench/compare.py.
Run it from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--save", default=None)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or str(bench["run_seconds"])
    values = {}
    for seed in seeds_of(a.seeds):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", a.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %d failed (exit %d):\n%s" %
                     (seed, out.returncode, out.stderr[-2000:]))
        if a.save:
            os.makedirs(a.save, exist_ok=True)
            path = os.path.join(a.save, "%s-s%d.txt" % (a.workload, seed))
            with open(path, "w") as f:
                f.write(out.stdout)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print("seed %d: %s" % (seed, ", ".join(
            "%s %.6g" % (k, v["value"]) for k, v in result["metrics"].items())))
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ratios = {}
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        if bound:
            ratios[name] = spread / bound
        print("%-16s median %-12.6g spread %.4f  bound %s" %
              (name, med, spread, bound))
    others = [v for k, v in ratios.items() if k != "setup_s"]
    print("largest spread / bound: %.2f; setup_s: %.2f" %
          (max(others, default=0.0), ratios.get("setup_s", float("nan"))))


if __name__ == "__main__":
    main()
