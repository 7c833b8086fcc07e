#!/usr/bin/env python3
"""Malformed-artifact test for tools/trace_summary.py.

Runs the tool over hand-written malformed documents (each must exit 2)
and over seeded mutants of one valid --reqtrace-out document and one
valid flight dump: a dropped key, a value of another type, or the bytes
cut short. Every run must exit 0 or 2 and never print a Python
traceback. A valid document, long or short, printed to a pipe whose
reader is already gone (as in `| head`) must exit 0 and print nothing
on stderr. The fixed cases run the tool as a process; the mutants call
its main() in this process (an exception escaping main() is the
traceback), which keeps the run to about a second.

Usage: trace_summary_fuzz.py path/to/trace_summary.py [mutants]
"""

import contextlib
import copy
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile

REQTRACE = {
    "displayTimeUnit": "ms",
    "traceEvents": [],
    "sps_reqtrace": {
        "k": 2, "traces_seen": 3, "peak_retained_spans": 3,
        "traces": [
            {"trace_id": 9, "seq": 1, "kind": "admit", "root_dur_ns": 1000,
             "sampled": "slow", "via_ladder": False, "via_fallback": False,
             "diverged": False,
             "spans": [
                 {"stage": "admit_total", "parent": -1, "t0": 2000,
                  "dur_ns": 1000, "attr": -1},
                 {"stage": "util_screen", "parent": 0, "t0": 2000,
                  "dur_ns": 500, "attr": 2},
             ]},
            {"trace_id": 11, "seq": 2, "kind": "leave", "root_dur_ns": 40,
             "sampled": "interesting", "via_ladder": True,
             "via_fallback": False, "diverged": False,
             "spans": [{"stage": "leave", "parent": -1, "t0": 3000,
                        "dur_ns": 40, "attr": -1}]},
        ],
    },
}

FLIGHT = {
    "reason": "crash_injection", "pid": 77, "traces_seen": 12,
    "threads": [
        {"pushed": 3, "records": [
            {"kind": "span", "stage": "util_screen", "trace_id": 5,
             "seq": 4, "t0": 100, "dur_ns": 20, "attr": 1},
            {"kind": "span", "stage": "admit_total", "trace_id": 5,
             "seq": 4, "t0": 90, "dur_ns": 60, "attr": -1},
            {"kind": "epoch", "epoch": 2, "admits": 10, "rejects": 3,
             "leaves": 1, "resident": 7},
        ]},
        {"pushed": 0, "records": []},
    ],
}


def flight_with(record):
    doc = copy.deepcopy(FLIGHT)
    doc["threads"][0]["records"].append(record)
    return doc


def without(d, key):
    return {k: v for k, v in d.items() if k != key}


SPAN = FLIGHT["threads"][0]["records"][0]
EPOCH = FLIGHT["threads"][0]["records"][2]
TRACE = REQTRACE["sps_reqtrace"]["traces"][0]

# Each must exit exactly 2.
MALFORMED = [
    {"sps_reqtrace": {"traces": [{}]}},
    {"threads": 5},
    {"sps_reqtrace": []},
    flight_with(without(SPAN, "stage")),
    flight_with(without(EPOCH, "epoch")),
    {"sps_reqtrace": dict(REQTRACE["sps_reqtrace"],
                          traces=[dict(TRACE, root_dur_ns="1000")])},
]

OTHER_TYPES = ["x", 1.5, True, None, [], {}, 7, -3]


def paths(node, prefix=()):
    """The key path of every value in a JSON tree."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield prefix + (k,)
            yield from paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield prefix + (i,)
            yield from paths(v, prefix + (i,))


def mutate(doc, rng):
    """One seeded mutant of `doc`, as bytes."""
    text = json.dumps(doc)
    how = rng.randrange(3)
    if how == 2:
        return text[: rng.randrange(len(text))].encode()
    doc = copy.deepcopy(doc)
    path = rng.choice(list(paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if how == 0:
        del parent[key]
    else:
        old = parent[key]
        parent[key] = rng.choice(
            [v for v in OTHER_TYPES if type(v) is not type(old)])
    return json.dumps(doc).encode()


def write(data, tmp):
    path = os.path.join(tmp, "artifact.json")
    with open(path, "wb") as f:
        f.write(data)
    return path


def run(tool, data, tmp):
    """Exit code and stderr of the tool as a process."""
    p = subprocess.run([sys.executable, tool, write(data, tmp), "--stages"],
                       capture_output=True, text=True)
    return p.returncode, p.stderr


def run_closed_stdout(tool, data, tmp):
    """Exit code and stderr of the tool as a process whose stdout is a
    pipe with no reader left."""
    r, w = os.pipe()
    os.close(r)
    try:
        p = subprocess.run([sys.executable, tool, write(data, tmp),
                            "--stages", "-n", "100000"],
                           stdout=w, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(w)
    return p.returncode, p.stderr


def run_in_process(module, data, tmp):
    """Exit code of module.main(); an escaping exception is reported as
    exit code None with its repr."""
    sys.argv = ["trace_summary.py", write(data, tmp), "--stages"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            return module.main(), err.getvalue()
        except SystemExit as e:
            return e.code, err.getvalue()
        except Exception as e:  # what a process would print as a traceback
            return None, f"Traceback: {e!r}"


def main():
    tool = sys.argv[1]
    mutants = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for doc in (REQTRACE, FLIGHT):
            rc, err = run(tool, json.dumps(doc).encode(), tmp)
            if rc != 0:
                failures.append(f"valid document exited {rc}: {err}")
        # Long enough that the first write of the buffered stdout comes
        # mid-run, not at exit.
        long_doc = copy.deepcopy(REQTRACE)
        long_doc["sps_reqtrace"]["traces"] *= 500
        for doc in (REQTRACE, long_doc, FLIGHT):
            rc, err = run_closed_stdout(tool, json.dumps(doc).encode(), tmp)
            if rc != 0 or err:
                failures.append(f"closed stdout exited {rc}: {err}")
        for i, doc in enumerate(MALFORMED):
            rc, err = run(tool, json.dumps(doc).encode(), tmp)
            if rc != 2 or "Traceback" in err or not err.startswith("error:"):
                failures.append(f"malformed case {i} exited {rc}: {err}")
        spec = importlib.util.spec_from_file_location("trace_summary", tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        rng = random.Random(20111)
        for i in range(mutants):
            data = mutate(REQTRACE if i % 2 == 0 else FLIGHT, rng)
            rc, err = run_in_process(module, data, tmp)
            if rc not in (0, 2) or "Traceback" in err:
                failures.append(f"mutant {i} exited {rc}: {data!r}\n{err}")
    for f in failures:
        print(f"FAIL {f}")
    print(f"{len(MALFORMED)} malformed cases, {mutants} mutants, "
          f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
