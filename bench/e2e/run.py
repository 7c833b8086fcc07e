#!/usr/bin/env python3
"""Build the end-to-end benchmark from this checkout's sources and run it.

One workload:
    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the benchmark's progress, then as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. Each run is also kept as `<out-dir>/<workload>-seed<N>-trace<T>.json`
(compare.py reads those) beside the binary's own BENCH_e2e*.json files.

    python3 bench/e2e/run.py --smoke

runs every workload at about 1/20 size, traced and untraced, and checks
that every metric of BENCHMARK.json comes out with its name and unit.

Builds go to .bench_build/e2e at the checkout root. Only the Python
standard library, CMake and a C++20 compiler are needed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no sps sources at the checkout root; nothing to benchmark")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_binary(args):
    """Run bench_e2e in its own process group; return (exit code, stdout)."""
    proc = subprocess.Popen([BINARY, *args], stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def split_result(out):
    lines = out.rstrip("\n").split("\n")
    try:
        return lines[:-1], json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("bench_e2e printed no result line")


def spec_metrics(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def select(result, metrics, prefix=""):
    """The result's metrics restricted to `metrics`, checked by name and unit."""
    chosen = {}
    for m in metrics:
        got = result["metrics"].get(prefix + m["name"])
        if got is None:
            fail(f"metric {prefix}{m['name']} missing from the result")
        if got["unit"] != m["unit"]:
            fail(f"metric {prefix}{m['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        chosen[m["name"]] = got
    return chosen


def run_one(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; expected one of {names}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    art_dir = os.path.join(args.out_dir, tag)
    os.makedirs(art_dir, exist_ok=True)
    cmd = [f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--out-dir={art_dir}"]
    if args.trace:
        cmd.append("--traced")
    code, out = run_binary(cmd)
    log, result = split_result(out)
    for line in log:
        print(line)
    line = {
        "correct": bool(result["correct"]) and code == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": select(result, spec_metrics(spec, args.trace)),
    }
    artifact = os.path.join(
        art_dir, "BENCH_e2e.traced.json" if args.trace else "BENCH_e2e.json")
    machine = None
    if os.path.isfile(artifact):
        with open(artifact) as f:
            machine = json.load(f).get("machine")
    with open(os.path.join(args.out_dir, tag + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "seconds": args.seconds,
                   "finished_at": time.time(), "machine": machine,
                   "result": line}, f, indent=1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def smoke(args, spec):
    art_dir = os.path.join(args.out_dir, "smoke")
    os.makedirs(art_dir, exist_ok=True)
    for trace in (0, 1):
        cmd = ["--smoke", "--seconds=1", f"--out-dir={art_dir}"]
        if trace:
            cmd.append("--traced")
        code, out = run_binary(cmd)
        log, result = split_result(out)
        for line in log:
            print(line)
        if code != 0 or not result["correct"]:
            fail(f"smoke run (trace {trace}) failed its correctness gates")
        for w in spec["workloads"]:
            select(result, spec_metrics(spec, trace), w["name"] + "/")
    print("smoke ok: every workload, every metric name and unit")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=20110318)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out-dir",
                   default=os.path.join(ROOT, ".bench_build", "e2e-runs"))
    args = p.parse_args()
    if not args.smoke and args.workload is None:
        p.error("--workload is required (or --smoke)")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    build()
    spec = load_spec()
    return smoke(args, spec) if args.smoke else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
