#!/usr/bin/env python3
"""Compare two sets of saved benchmark outputs (the standard output of
perfbench/run.py, one file per run).

    python3 perfbench/compare.py --base A1.txt A2.txt ... --new B1.txt ...

Per workload it checks three things, kept apart:
  - within each set, every deterministic value (work counts, store
    sizes, digests, tune quality) is equal, exactly, between runs with
    the same seeds: runs of one commit do the same work;
  - across the sets, the values in OUTPUTS (what the program computed and
    how well it tuned) are equal, exactly, for the same seeds.  The other
    deterministic values are work counts a change may rightly move: their
    changes are printed, not failed, unless every run records the same
    clean git revision, when both sets ran one commit and must agree on
    all of them;
  - each end-to-end metric's median over the untraced runs in NEW may be
    worse than in BASE by at most the metric's bound from BENCHMARK.json.
It also prints the medians of the further end-to-end figures and, for
traced runs, of the per-layer metrics.  Exit status 1 on any failure.
"""

import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")

RUN_KEYS = ("workload", "seed", "search_seed", "kb_seed", "sweep_seed")

OUTPUTS = ("costs_digest", "results_digest", "chosen_digest", "kb_digest",
           "speedup_oneshot", "speedup_pcmodel", "speedup_iterative",
           "pct_best_iterative")


def record(path):
    with open(path) as f:
        for line in f:
            if line.startswith('{"record":'):
                return json.loads(line)["record"]
    sys.exit("%s: no run record" % path)


def med(xs):
    return statistics.median(xs) if xs else float("nan")


def spread(xs):
    if len(xs) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def by_run(records):
    """deterministic values, grouped by workload and seeds"""
    groups = {}
    for r in records:
        groups.setdefault(tuple(r.get(k) for k in RUN_KEYS), []).append(
            r["deterministic"])
    return groups


def differing(a, b):
    return [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    a = ap.parse_args()
    with open(BENCHMARK) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base = [record(p) for p in a.base]
    new = [record(p) for p in a.new]
    ok = True

    for side, records in (("base", base), ("new", new)):
        for key, dets in sorted(by_run(records).items(), key=str):
            for d in dets[1:]:
                for k in differing(dets[0], d):
                    ok = False
                    print("DETERMINISTIC MISMATCH in %s %s %s: %r vs %r" %
                          (side, dict(zip(RUN_KEYS, key)), k, dets[0].get(k),
                           d.get(k)))

    revs = {r["rev"] for r in base + new}
    one_commit = (len(revs) == 1 and revs.isdisjoint({"none", "unknown"})
                  and not any(r["dirty"] for r in base + new))
    base_runs, new_runs = by_run(base), by_run(new)
    for key in sorted(set(base_runs) & set(new_runs), key=str):
        b, n = base_runs[key][0], new_runs[key][0]
        for k in differing(b, n):
            label = "changed"
            if k in OUTPUTS:
                ok = False
                label = "OUTPUT MISMATCH"
            elif one_commit:
                ok = False
                label = "DETERMINISTIC MISMATCH"
            print("%s %s %s: base %r new %r" %
                  (label, dict(zip(RUN_KEYS, key)), k, b.get(k), n.get(k)))

    for wl in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == wl]
        n = [r for r in new if r["workload"] == wl]
        b0 = [r for r in b if r["trace"] == 0]
        n0 = [r for r in n if r["trace"] == 0]
        print("== %s (%d base runs, %d new runs)" % (wl, len(b), len(n)))
        for name, m in metrics.items():
            bv = [r["end_to_end"][name]["value"] for r in b0]
            nv = [r["end_to_end"][name]["value"] for r in n0]
            if not bv or not nv:
                continue
            change = (med(nv) - med(bv)) / med(bv)
            worse = change if m["better"] == "lower" else -change
            verdict = "ok"
            if worse > m["bound"]:
                verdict = "WORSE THAN BOUND"
                ok = False
            print("  %-16s %-10s base %-12.6g new %-12.6g change %+7.2f%%"
                  "  spreads %.3f/%.3f  bound %.2f  %s" %
                  (name, m["unit"], med(bv), med(nv), 100 * change,
                   spread(bv), spread(nv), m["bound"], verdict))
        for section in ("extra", "per_layer"):
            names = sorted({k for r in b + n for k in r.get(section, {})})
            for k in names:
                def val(r):
                    v = r.get(section, {}).get(k)
                    return v["value"] if isinstance(v, dict) else v
                bv = [val(r) for r in b if isinstance(val(r), (int, float))]
                nv = [val(r) for r in n if isinstance(val(r), (int, float))]
                if bv and nv:
                    print("  %-9s %-32s base %-14.6g new %-14.6g" %
                          (section, k, med(bv), med(nv)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
