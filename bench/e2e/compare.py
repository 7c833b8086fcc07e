#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs (bench/e2e/README.md).

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/e2e/compare.py --same RUNS_A RUNS_B

Each directory holds the run records run.py writes
(`<workload>-seed<N>-trace<T>.json`). Runs of the two sides are paired by
workload and seed. For every (workload, end-to-end metric) one row says:

  improved    at least 10 pairs that alternated which side ran first, the
              change won at least 9/10 of them (ties count for neither),
              and the medians differ by more than the parent's IQR;
  unresolved  the spread (IQR / median) of either side exceeds the
              metric's bound, and not every change run beats every parent
              run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

--same checks that two sets of runs of ONE commit agree: both spreads and
the difference of the medians within every metric's bound. Traced runs,
when both sides have them, get a side-by-side table of layer medians (no
verdicts: layers have no bounds). Exit status 1 when a row is worse,
or with --same when any row disagrees.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def load_runs(directory):
    """{(workload, trace): {seed: record}} from one directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if not {"workload", "seed", "trace", "result"} <= rec.keys():
            continue
        runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return runs


def values(recs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in recs
            if metric in r["result"]["metrics"]]


def spread(v):
    """(median, IQR) with statistics.quantiles' default method."""
    med = statistics.median(v)
    if len(v) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(v, n=4)
    return med, q3 - q1


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(parent, change, metric):
    """One comparison row for paired seed -> record maps."""
    name, bound, direction = metric["name"], metric["bound"], metric["better"]
    p = values(parent.values(), name)
    c = values(change.values(), name)
    if not p or not c:
        return None
    mp, iqr_p = spread(p)
    mc, iqr_c = spread(c)
    worse_by = (mp - mc) / mp if direction == "higher" else (mc - mp) / mp
    seeds = sorted(set(parent) & set(change))
    wins = sum(better(values([change[s]], name)[0],
                      values([parent[s]], name)[0], direction) for s in seeds)
    parent_first = sum(parent[s].get("finished_at", 0) <
                       change[s].get("finished_at", 0) for s in seeds)
    alternated = abs(2 * parent_first - len(seeds)) <= 1
    width = max(iqr_p / mp if mp else 0.0, iqr_c / mc if mc else 0.0)
    all_better = all(better(x, y, direction) for x in c for y in p)
    if (len(seeds) >= MIN_PAIRS and alternated
            and wins >= MIN_WIN_SHARE * len(seeds) and abs(mc - mp) > iqr_p
            and worse_by < 0):
        word = "improved"
    elif width > bound and not all_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    else:
        word = "unchanged"
    return {"median_p": mp, "median_c": mc, "spread_p": iqr_p / mp if mp else 0,
            "spread_c": iqr_c / mc if mc else 0, "delta": (mc - mp) / mp,
            "wins": wins, "pairs": len(seeds), "verdict": word}


def agree(a, b, metric):
    """--same: two run sets of one commit within the metric's bound."""
    va = values(a.values(), metric["name"])
    vb = values(b.values(), metric["name"])
    if not va or not vb:
        return None
    ma, iqr_a = spread(va)
    mb, iqr_b = spread(vb)
    bound = metric["bound"]
    spreads_ok = metric["name"] == "setup_s" or (
        iqr_a / ma <= bound and iqr_b / mb <= bound)
    ok = spreads_ok and abs(mb - ma) / ma <= bound
    return {"median_p": ma, "median_c": mb, "spread_p": iqr_a / ma,
            "spread_c": iqr_b / mb, "delta": (mb - ma) / ma, "wins": "-",
            "pairs": len(set(a) & set(b)),
            "verdict": "agree" if ok else "DISAGREE"}


def layer_table(left, right, spec):
    traced = [w for (w, t) in sorted(left) if t == 1 and (w, 1) in right]
    if not traced:
        return
    print("\nper-layer medians (traced runs)")
    print(f"{'workload':17} {'layer':38} {'A':>14} {'B':>14} {'B/A':>8}")
    for workload in traced:
        for m in spec["per_layer"]:
            va = values(left[(workload, 1)].values(), m["name"])
            vb = values(right[(workload, 1)].values(), m["name"])
            if not va or not vb:
                continue
            a, b = statistics.median(va), statistics.median(vb)
            if a == 0 and b == 0:
                continue
            ratio = f"{b / a:8.3f}" if a else "       -"
            print(f"{workload:17} {m['name']:38} {a:14.6g} {b:14.6g} {ratio}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("left", help="parent runs (or first set with --same)")
    p.add_argument("right", help="change runs (or second set with --same)")
    p.add_argument("--same", action="store_true")
    p.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    left, right = load_runs(args.left), load_runs(args.right)

    print(f"{'workload':17} {'metric':12} {'A median':>12} {'B median':>12} "
          f"{'delta':>8} {'spreadA':>8} {'spreadB':>8} {'bound':>6} "
          f"{'wins':>6}  verdict")
    failed = False
    for w in spec["workloads"]:
        key = (w["name"], 0)
        if key not in left or key not in right:
            print(f"{w['name']:17} (no untraced runs on both sides)")
            continue
        for m in spec["end_to_end"]:
            row = (agree if args.same else verdict)(left[key], right[key], m)
            if row is None:
                continue
            failed |= row["verdict"] in ("worse", "DISAGREE")
            print(f"{w['name']:17} {m['name']:12} {row['median_p']:12.6g} "
                  f"{row['median_c']:12.6g} {row['delta']:+8.2%} "
                  f"{row['spread_p']:8.2%} {row['spread_c']:8.2%} "
                  f"{m['bound']:6.0%} {row['wins']:>2}/{row['pairs']:<3}  "
                  f"{row['verdict']}")
    layer_table(left, right, spec)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
