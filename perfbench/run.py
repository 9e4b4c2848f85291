#!/usr/bin/env python3
"""End-to-end benchmark of graphit-ordered.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload road_live|road_sssp \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` binary (perfbench/CMakeLists.txt, which compiles the
library from src/) into .bench_build/perfbench on first use, runs one
workload and checks every answer against an oracle.

--trace 0 prints every end-to-end metric of BENCHMARK.json. --trace 1 runs
the workload twice with the same seed, untraced and then traced, and prints
every per-layer metric, the self time of each span name, and the tracing
overhead (traced minus untraced end-to-end metrics). The traced run's spans
are written to .bench_build/perfbench/traces/.

Human-readable lines start with '#'. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
status is 0 only when every operation succeeded and matched its oracle.

--tiny (small graphs, one set-up) and --corrupt (falsify one checked
answer) exist for perfbench/test_perfbench.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# On top of its measured windows, one command's binary runs (set-ups,
# oracle checks, start-up) end within this many seconds.
RUN_ALLOWANCE_S = 110


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "QueryEngine.h")):
        die("library sources not found under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        die("build failed")


def run_budget(seconds, trace):
    """Seconds one command's binary runs may take: a window per run (two
    with --trace 1) plus the allowance."""
    return (2 if trace else 1) * seconds + RUN_ALLOWANCE_S


def run_binary(args, traced, deadline):
    """Runs the binary once, killing it at deadline (time.monotonic()).
    Returns (record, exit status)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "1" if traced else "0"]
    if traced:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.csv" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    # Waiting OpenMP threads sleep instead of spinning, so CPU time counts
    # work, not waiting (see perfbench/src/Speed.h).
    env = dict(os.environ, OMP_WAIT_POLICY="passive")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die("perfbench runs took longer than %gs" %
            run_budget(args.seconds, args.trace))
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("perfbench exited %d without a record" % proc.returncode)
    return record, proc.returncode


def record_failed(record):
    counts = record["counts"]
    return int(counts["failed"]), int(counts["attempted"])


def print_record(record, spec):
    tag = "%s seed=%d traced=%s" % (record["workload"], record["seed"],
                                    record["traced"])
    gated = {m["name"] for m in spec["end_to_end"]}
    print("# %s meta %s" % (tag, json.dumps(record["meta"], sort_keys=True)))
    print("# %s counts %s" % (tag, json.dumps(record["counts"])))
    for name, metric in record["end_to_end"].items():
        print("# %s %s = %s %s%s" % (tag, name, metric["value"],
                                     metric["unit"],
                                     "" if name in gated else "  (not gated)"))


def metrics_for(measured, declared, fill_missing):
    """The contract's metrics object. A declared metric the run did not
    measure is an error, or 0 when fill_missing (a per-layer metric of
    a layer this workload does not call)."""
    out = {}
    for metric in declared:
        entry = measured.get(metric["name"])
        if entry is None and fill_missing:
            entry = {"value": 0, "unit": metric["unit"]}
        if entry is None or not isinstance(entry["value"], (int, float)):
            die("perfbench did not report %s" % metric["name"])
        if entry["unit"] != metric["unit"]:
            die("perfbench reports %s in %s, BENCHMARK.json says %s" % (
                metric["name"], entry["unit"], metric["unit"]))
        out[metric["name"]] = {"value": entry["value"], "unit": metric["unit"]}
    return out


def print_trace_report(base, traced, spec, layers):
    workload = traced["workload"]
    for name, metric in base["end_to_end"].items():
        before = metric["value"]
        after = traced["end_to_end"][name]["value"]
        share = (after - before) / before * 100 if before else 0.0
        print("# overhead %s %s: untraced %.6g traced %.6g diff %+.6g %s "
              "(%+.1f%%)" % (workload, name, before, after, after - before,
                             metric["unit"], share))
    print("# spans %s: name count total_s self_s" % workload)
    for name, s in sorted(traced["spans"].items()):
        print("# span %-24s %8d %12.6f %12.6f" % (name, s["count"],
                                                 s["total_s"], s["self_s"]))
    for metric in spec["per_layer"]:
        name = metric["name"]
        link = layers.get(name, {})
        moves = "-> %s on %s" % (",".join(link.get("moves", ["?"])),
                                 ",".join(link.get("workloads", [])))
        entry = traced["per_layer"].get(name)
        if entry is None:
            print("# layer %s %s = not measured: %s does not call this "
                  "layer  %s" % (workload, name, workload, moves))
        else:
            print("# layer %s %s = %.6g %s  %s" % (
                workload, name, entry["value"], entry["unit"], moves))


def main():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    build()
    deadline = time.monotonic() + run_budget(args.seconds, args.trace)
    base, status = run_binary(args, False, deadline)
    print_record(base, spec)
    failed, attempted = record_failed(base)
    if args.trace:
        traced, traced_status = run_binary(args, True, deadline)
        print_record(traced, spec)
        print_trace_report(base, traced, spec, layers)
        status = status or traced_status
        traced_failed, traced_attempted = record_failed(traced)
        failed += traced_failed
        attempted += traced_attempted
        metrics = metrics_for(traced["per_layer"], spec["per_layer"], True)
    else:
        metrics = metrics_for(base["end_to_end"], spec["end_to_end"], False)

    correct = status == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
