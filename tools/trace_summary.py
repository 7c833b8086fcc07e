#!/usr/bin/env python3
"""Summarize sps request-trace / flight-recorder artifacts.

Reads either artifact the span profiler's request tracing (DESIGN.md
§16) produces and prints the top-N slowest requests with a per-stage
time breakdown:

  * a --reqtrace-out JSON (sniffed by its top-level "sps_reqtrace" key):
    the tail-sampled span trees — slowest-K plus the "interesting"
    (ladder / fallback / diverged) requests;
  * a flight-<pid>.json crash dump (sniffed by its "threads" key): the
    per-thread rings of the last span records before the dump, grouped
    back into requests by trace id.

Usage:
  tools/trace_summary.py reqtrace.json [-n 10] [--stages]
  tools/trace_summary.py checkpoints/flight-12345.json

Exit codes: 0 on success, 2 on an unreadable or malformed artifact
(one "error:" line on stderr; the shape and types are checked once at
load). A reader that closes stdout early (`... | head -5`) ends the
run quietly with exit code 0. Wall-clock data: for humans debugging a
slow or crashed replay, never for byte-compares.
"""

import argparse
import collections
import json
import os
import sys


class Malformed(Exception):
    """The artifact does not have the shape the C++ writer produces."""


# Every key the writers emit (src/obs/reqtrace.cpp), with its JSON type.
REQTRACE = {"k": int, "traces_seen": int, "peak_retained_spans": int,
            "traces": list}
TRACE = {"trace_id": int, "seq": int, "kind": str, "root_dur_ns": int,
         "sampled": str, "via_ladder": bool, "via_fallback": bool,
         "diverged": bool, "spans": list}
TRACE_SPAN = {"stage": str, "parent": int, "t0": int, "dur_ns": int,
              "attr": int}
FLIGHT = {"reason": str, "pid": int, "traces_seen": int, "threads": list}
THREAD = {"pushed": int, "records": list}
RECORD = {
    "span": {"kind": str, "stage": str, "trace_id": int, "seq": int,
             "t0": int, "dur_ns": int, "attr": int},
    "epoch": {"kind": str, "epoch": int, "admits": int, "rejects": int,
              "leaves": int, "resident": int},
}


def check(obj, schema, where):
    """Raise Malformed unless `obj` is an object holding every key of
    `schema` with its type (bool is not an int here)."""
    if not isinstance(obj, dict):
        raise Malformed(f"{where}: expected an object")
    for key, typ in schema.items():
        if key not in obj:
            raise Malformed(f"{where}: missing key '{key}'")
        value = obj[key]
        if isinstance(value, bool) != (typ is bool) or not isinstance(value, typ):
            raise Malformed(f"{where}.{key}: expected {typ.__name__}")
    return obj


def validate(doc):
    """Check the whole artifact once; returns its kind."""
    if isinstance(doc, dict) and "sps_reqtrace" in doc:
        meta = check(doc["sps_reqtrace"], REQTRACE, "sps_reqtrace")
        for i, t in enumerate(meta["traces"]):
            check(t, TRACE, f"traces[{i}]")
            for j, s in enumerate(t["spans"]):
                check(s, TRACE_SPAN, f"traces[{i}].spans[{j}]")
        return "reqtrace"
    if isinstance(doc, dict) and "threads" in doc:
        check(doc, FLIGHT, "flight dump")
        for i, t in enumerate(doc["threads"]):
            check(t, THREAD, f"threads[{i}]")
            for j, r in enumerate(t["records"]):
                where = f"threads[{i}].records[{j}]"
                kind = r.get("kind") if isinstance(r, dict) else None
                if not isinstance(kind, str) or kind not in RECORD:
                    raise Malformed(f"{where}: kind is not 'span' or 'epoch'")
                check(r, RECORD[kind], where)
        return "flight"
    raise Malformed(
        "neither a --reqtrace-out document (no 'sps_reqtrace' key) "
        "nor a flight dump (no 'threads' key)"
    )


def load(path):
    """Parse and validate `path`; exit 2 with one error line if it is
    unreadable or malformed."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        return doc, validate(doc)
    except (OSError, ValueError, RecursionError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
    except Malformed as e:
        print(f"error: {path} is malformed: {e}", file=sys.stderr)
    sys.exit(2)


def fmt_us(ns):
    return f"{ns / 1e3:.1f}us"


def stage_breakdown(spans):
    """Per-stage totals (ns) over a request's span records, excluding the
    root stage so the rows sum to roughly the root duration."""
    by_stage = collections.Counter()
    for s in spans:
        if s["parent"] == -1:
            continue
        by_stage[s["stage"]] += s["dur_ns"]
    return by_stage


def print_request(rank, head, spans, show_stages):
    flags = "".join(
        tag
        for cond, tag in (
            (head.get("via_ladder"), " ladder"),
            (head.get("via_fallback"), " fallback"),
            (head.get("diverged"), " DIVERGED"),
        )
        if cond
    )
    print(
        f"{rank:3d}. seq {head['seq']:>8} {head['kind']:<5} "
        f"root {fmt_us(head['root_dur_ns']):>12} "
        f"spans {len(spans):>5} [{head.get('sampled', 'flight')}]{flags}"
    )
    if not show_stages:
        return
    total = max(head["root_dur_ns"], 1)
    for stage, ns in stage_breakdown(spans).most_common():
        print(f"       {stage:<18} {fmt_us(ns):>12}  {100.0 * ns / total:5.1f}%")


def summarize_reqtrace(doc, top_n, show_stages):
    meta = doc["sps_reqtrace"]
    traces = meta["traces"]
    print(
        f"request traces: {meta['traces_seen']} requests seen, "
        f"{len(traces)} retained (K={meta['k']}), "
        f"peak {meta['peak_retained_spans']} spans held"
    )
    traces = sorted(traces, key=lambda t: t["root_dur_ns"], reverse=True)
    for rank, t in enumerate(traces[:top_n], 1):
        print_request(rank, t, t["spans"], show_stages)
    return 0


def summarize_flight(doc, top_n, show_stages):
    threads = doc["threads"]
    n_records = sum(len(t["records"]) for t in threads)
    print(
        f"flight dump: reason={doc['reason']} pid={doc['pid']} "
        f"{len(threads)} thread ring(s), {n_records} records, "
        f"{doc['traces_seen']} requests seen"
    )
    # Group span records back into requests by trace id; the ring holds
    # only the tail of history, so requests may be partial (no root).
    by_trace = collections.defaultdict(list)
    epochs = []
    for t in threads:
        for r in t["records"]:
            if r["kind"] == "epoch":
                epochs.append(r)
            elif r["trace_id"] != 0:
                by_trace[r["trace_id"]].append(r)
    if epochs:
        e = max(epochs, key=lambda r: r["epoch"])
        print(
            f"last epoch {e['epoch']}: admits={e['admits']} "
            f"rejects={e['rejects']} leaves={e['leaves']} "
            f"resident={e['resident']}"
        )
    requests = []
    for tid, spans in by_trace.items():
        roots = [s for s in spans if s["stage"] in ("admit_total", "leave")]
        root_dur = max((s["dur_ns"] for s in roots), default=max(s["dur_ns"] for s in spans))
        requests.append(
            (
                {
                    "seq": spans[0]["seq"],
                    "kind": "admit" if any(s["stage"] == "admit_total" for s in roots) else "leave" if roots else "?",
                    "root_dur_ns": root_dur,
                    "trace_id": tid,
                },
                spans,
            )
        )
    requests.sort(key=lambda pair: pair[0]["root_dur_ns"], reverse=True)
    print(f"{len(requests)} request(s) reconstructed from the ring tail:")
    for rank, (head, spans) in enumerate(requests[:top_n], 1):
        # Flight records carry no parent links; approximate the
        # breakdown by excluding the root records themselves.
        tagged = [
            dict(s, parent=(-1 if s["stage"] in ("admit_total", "leave") else 0))
            for s in spans
        ]
        print_request(rank, head, tagged, show_stages)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("artifact", help="reqtrace JSON or flight-<pid>.json")
    ap.add_argument("-n", "--top", type=int, default=10, help="rows to print")
    ap.add_argument(
        "--stages",
        action="store_true",
        help="per-stage breakdown under each request",
    )
    args = ap.parse_args()

    doc, kind = load(args.artifact)
    if kind == "reqtrace":
        return summarize_reqtrace(doc, args.top, args.stages)
    return summarize_flight(doc, args.top, args.stages)


if __name__ == "__main__":
    try:
        rc = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Send the rest of the buffered output to /dev/null so the flush
        # at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        rc = 0
    sys.exit(rc)
