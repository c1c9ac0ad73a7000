#!/usr/bin/env python3
"""Builds and runs the end-to-end served-request benchmark (README.md).

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds pebbletc_serve and the load generator from the repository sources
(CMake, into $CARGO_TARGET_DIR/servebench, default .bench_build), runs one
measurement, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. The line before it is
the full report (host block, phase detail, ratio bases).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "servebench", "pebbletc_serve"],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "serve", "server.h")):
        fail("no pebbletc sources next to the benchmark")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %s (have %s)" % (args.workload, names))

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "servebench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)

    workdir = os.path.join(target, "servebench-run",
                           "%s-%d" % (args.workload, os.getpid()))
    outdir = os.path.join(target, "servebench-out")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    cmd = [os.path.join(build_dir, "servebench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--daemon=" + os.path.join(build_dir, "pebbletc_serve"),
           "--workdir=" + workdir, "--outdir=" + outdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        fail("run failed with exit code %d" % proc.returncode)
    report, result = lines[-2], json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            fail("run did not report metric %s" % m["name"])
        metrics[m["name"]] = {"value": result["metrics"][m["name"]]["value"],
                              "unit": m["unit"]}
    print(report)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
