#!/usr/bin/env python3
"""End-to-end benchmark of selest: one command, three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 10 --trace 0

Builds the library and the benchmark client from source into .bench_build/
(CMake, the repository's default RelWithDebInfo build type), runs one
workload as a single seeded closed-loop client, checks every answer, and
prints a report whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (a per-layer metric whose layer is not
on the workload's path reads 0). Full results, and for traced runs the span
dump and the self-time table, go to
<results>/<workload>/seed-<seed>-trace-<trace>/. The exit code is 0 only
when every call and every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("read-hot", "catalog-feedback", "ingest-durable")
BUILD_DIR = os.path.join(".bench_build", "cmake")
# The run must end within 180 s; keep a margin for the report.
RUN_LIMIT_S = 170.0
# The library's own refresh pool; at most the machine's core count.
POOL_THREADS = 2
# End-to-end metrics that only some workloads have; reported by name here,
# but kept out of BENCHMARK.json's end-to-end set, which every
# workload must fill.
WORKLOAD_ONLY = (
    ("ingest_rows_per_s", "1/s"),
    ("ingest_batch_p50_us", "us"),
    ("ingest_batch_p99_us", "us"),
    ("feedback_p50_us", "us"),
    ("feedback_p99_us", "us"),
    ("recover_s", "s"),
    ("disk_bytes_per_row", "B/row"),
)


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("perfbench: " + message)
    sys.exit(code)


def build(root):
    """Configures once and builds; returns the client binary path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no selest sources (src/CMakeLists.txt) next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed", 1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    built = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "selest_perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        fail("build failed", 1)
    return os.path.join(build_dir, "selest_perfbench")


def metric_set(spec, measured, fill_idle):
    """The metrics named in `spec`, in order, with BENCHMARK.json's units."""
    metrics, missing = {}, []
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                missing.append(name + " (unit " + measured[name]["unit"] + ")")
            metrics[name] = {"value": measured[name]["value"], "unit": unit}
        elif fill_idle:
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            missing.append(name)
    return metrics, missing


def report(result, args, metrics):
    context = result["context"]
    print("selest end-to-end benchmark: workload %s, seed %d, %s s, trace %d"
          % (args.workload, args.seed, context.get("seconds"), args.trace))
    print("context: " + ", ".join(
        "%s=%s" % (k, context[k]) for k in sorted(context)))
    error_rate = result["failed"] / max(1, result["attempted"])
    print("\nend-to-end (%s):" % ("untraced passes" if args.trace else "run"))
    rows = dict(result["end_to_end"])
    rows.update(result["workload_only"])
    for name, metric in sorted(rows.items()):
        samples = metric.get("samples", 0)
        print("  %-22s %16.6f %-6s%s" % (
            name, metric["value"], metric["unit"],
            "  (n=%d)" % samples if samples else ""))
    for name, unit in WORKLOAD_ONLY:
        if name not in rows:
            print("  %-22s %16s %-6s" % (name, "n/a", unit))
    print("  %-22s %16.6f %-6s  (%d failed / %d attempted)" % (
        "error_rate", error_rate, "ratio", result["failed"],
        result["attempted"]))
    if args.trace:
        print("\nper-layer (traced passes; 0 = layer idle on this workload):")
        for name, metric in metrics.items():
            print("  %-40s %16.6f %s" % (name, metric["value"],
                                         metric["unit"]))
    for failure in result.get("failures", []):
        print("check failed: " + failure)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(".bench_build",
                                                          "results"))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    binary = build(root)

    results_dir = os.path.join(root, args.results, args.workload,
                               "seed-%d-trace-%d" % (args.seed, args.trace))
    work_dir = os.path.join(root, ".bench_build", "work",
                            "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(results_dir, ignore_errors=True)
    env = dict(os.environ)
    env["SELEST_THREADS"] = str(max(1, min(POOL_THREADS, os.cpu_count() or 1)))
    env.pop("SELEST_SIMD", None)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--results-dir", results_dir]
    started = time.monotonic()
    try:
        child = subprocess.run(command, env=env, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("workload did not finish within %.0f s" % RUN_LIMIT_S, 1)
    shutil.rmtree(work_dir, ignore_errors=True)
    log("perfbench: client exited %d after %.1f s" % (
        child.returncode, time.monotonic() - started))
    try:
        with open(os.path.join(results_dir, "result.json")) as f:
            result = json.load(f)
    except (OSError, ValueError) as error:
        fail("no result from the client: %s" % error, 1)

    if args.trace:
        metrics, missing = metric_set(spec["per_layer"], result["per_layer"],
                                      fill_idle=True)
    else:
        metrics, missing = metric_set(spec["end_to_end"],
                                      result["end_to_end"], fill_idle=False)
    failed = result["failed"] + len(missing)
    attempted = result["attempted"] + len(missing)
    for name in missing:
        result.setdefault("failures", []).append("metric missing: " + name)
    correct = failed == 0 and child.returncode == 0
    report(result, args, metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
