#!/usr/bin/env python3
"""Perf-regression smoke over the BENCH_*.json records.

Compares a freshly produced bench JSON against the committed baseline in
bench/baselines/ and fails (exit 1) when a variant regressed by more
than the tolerance.

The comparison is RATIO-based, not absolute: CI runners and developer
machines differ in raw speed by integer factors, so absolute wall-clock
thresholds would be pure noise. Instead, within each workload every
variant's wall time is normalized by the workload's reference variant
(the variant literally named "serial" if present, else the first one
recorded), and the normalized ratios are compared baseline-vs-current.
That catches the regressions this repo actually cares about — "the
recording sink got slower relative to the NullSink path", "sharding
got slower relative to serial" — on any machine.

The check is one-sided by default: getting FASTER relative to the
reference never fails (a beefier CI runner makes the sharded variants
look better, which is fine). --two-sided [PATTERN] also fails when a
matching variant's ratio DROPS beyond tolerance — which is how a
slowdown of the reference variant itself (the NullSink hot path, whose
ratio to itself is always 1.0) becomes visible: the other serial
variants' ratios shrink in unison. PATTERN (fnmatch, default '*')
should exclude variants whose ratio legitimately depends on the
machine — e.g. '--two-sided "serial*"' guards the serial kernel-path
family while letting the sharded variants enjoy multi-core runners.
Variants present in only one of the files are reported but do not fail
the check (benches gain and lose variants across PRs).

Variants present in only one file are reported but do not fail the
check by default — benches gain and lose variants across PRs. When a
variant IS the gate (e.g. the obs bench's "profiled" ratio pins the
profiling-off hook cost), pass --require PATTERN: a matching variant
missing from either file then fails with a pointer at the stale file,
instead of the gate silently evaporating.

The ratios still carry the machine: a ratio of a one-thread runner's
walls need not match a four-core runner's. When the two files'
"machine" blocks differ, or the baseline has none, both blocks are
printed with a warning line; that is a warning, never a failure.

Usage:
  check_bench_regression.py CURRENT.json BASELINE.json [--tolerance 0.25]
                            [--two-sided [PATTERN]] [--require PATTERN]

Expected JSON shape (what util/json_writer.hpp emits from the benches):
  { ..., "runs": [ {"workload": "...", "variant": "...",
                    "wall_s": 1.23, ...}, ... ] }
"""

import argparse
import fnmatch
import json
import sys


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    print("hint: regenerate the baseline by running the bench binary in "
          "build/ and copying its BENCH_*.json into bench/baselines/",
          file=sys.stderr)
    sys.exit(2)


def load_doc(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        fail(f"{path}: no such file — was the bench run / the baseline "
             f"committed?")
    except json.JSONDecodeError as e:
        fail(f"{path}: not valid JSON ({e}) — truncated bench run?")


def load_runs(path, doc):
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail(f"{path}: no \"runs\" array — not a BENCH_*.json document?")
    by_workload = {}
    for i, r in enumerate(runs):
        if "wall_s" not in r:
            continue  # informational rows (ratios, counters) are fine
        for key in ("workload", "variant"):
            if key not in r:
                fail(f"{path}: runs[{i}] has wall_s but no \"{key}\" — "
                     f"every timed row needs workload+variant for the "
                     f"ratio match")
        by_workload.setdefault(r["workload"], []).append(r)
    if not by_workload:
        fail(f"{path}: no timed rows (wall_s) in \"runs\"")
    return by_workload


def reference_wall(entries):
    for r in entries:
        if r["variant"] == "serial":
            return r["wall_s"]
    return entries[0]["wall_s"]


def ratios(by_workload):
    out = {}
    for workload, entries in by_workload.items():
        ref = reference_wall(entries)
        if ref <= 0:
            continue
        for r in entries:
            out[(workload, r["variant"])] = r["wall_s"] / ref
    return out


def warn_machine(current, baseline):
    if baseline is not None and current == baseline:
        return
    why = ("the baseline has no machine block" if baseline is None
           else "the machine blocks differ")
    print(f"warning: {why}; the ratios may not compare")
    print(f"  baseline machine: {json.dumps(baseline, sort_keys=True)}")
    print(f"  current  machine: {json.dumps(current, sort_keys=True)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed relative slowdown vs baseline (0.25 = 25%%)")
    ap.add_argument("--two-sided", nargs="?", const="*", default=None,
                    metavar="PATTERN",
                    help="also fail when a matching variant's ratio "
                         "IMPROVES beyond tolerance (catches the reference "
                         "variant itself slowing down); fnmatch pattern, "
                         "default '*'")
    ap.add_argument("--require", default=None, metavar="PATTERN",
                    help="fail if a variant matching PATTERN is missing "
                         "from either file (a gated variant must not "
                         "silently disappear)")
    args = ap.parse_args()

    current_doc = load_doc(args.current)
    baseline_doc = load_doc(args.baseline)
    warn_machine(current_doc.get("machine"), baseline_doc.get("machine"))
    current = ratios(load_runs(args.current, current_doc))
    baseline = ratios(load_runs(args.baseline, baseline_doc))

    if args.require is not None:
        for name, keys in (("current", current), ("baseline", baseline)):
            if not any(fnmatch.fnmatch(v, args.require)
                       for _, v in keys):
                path = args.current if name == "current" else args.baseline
                fail(f"{path}: no variant matches required pattern "
                     f"'{args.require}' — the gated variant is missing "
                     f"from the {name} file")

    failures = []
    for key, base_ratio in sorted(baseline.items()):
        if key not in current:
            print(f"note: {key[0]}/{key[1]} in baseline only (skipped)")
            continue
        cur_ratio = current[key]
        limit = base_ratio * (1.0 + args.tolerance)
        floor = base_ratio / (1.0 + args.tolerance)
        two_sided = (args.two_sided is not None
                     and fnmatch.fnmatch(key[1], args.two_sided))
        status = "OK "
        if cur_ratio > limit or (two_sided and cur_ratio < floor):
            status = "FAIL"
            failures.append(key)
        print(f"{status} {key[0]:12s} {key[1]:20s} "
              f"baseline x{base_ratio:6.3f}  current x{cur_ratio:6.3f}  "
              f"limit x{limit:6.3f}")
    for key in sorted(set(current) - set(baseline)):
        print(f"note: {key[0]}/{key[1]} is new (no baseline)")

    if failures:
        print(f"\n{len(failures)} perf regression(s) beyond "
              f"{args.tolerance:.0%} tolerance", file=sys.stderr)
        return 1
    print("\nperf smoke clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
