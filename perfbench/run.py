#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload tweets --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to .bench_build/perfbench;
the scale workload's .ssd images and the traced run's spans go under it too.
Everything the benchmark binary prints is passed through; the last line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`, where
`metrics` holds the end-to-end metrics named in BENCHMARK.json (--trace 0)
or its per-layer metrics (--trace 1). A per-layer metric of a layer the
workload never calls reads 0.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("tweets", "scale", "live", "bounds")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_quietly(cmd, env):
    """Runs a build step with its output on stderr; stdout stays the result."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if proc.returncode != 0:
        fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quietly(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env)
    run_quietly(["cmake", "--build", BUILD, "--target", "perfbench",
                 "-j", str(os.cpu_count() or 1)], env)
    return os.path.join(BUILD, "perfbench")


def select_metrics(measured, trace):
    """Picks BENCHMARK.json's metrics for this kind of run, checking units."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = measured.get(name)
        if got is None:
            if not trace:
                fail(f"end-to-end metric {name} was not measured")
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            fail(f"{name}: measured in {got['unit']}, BENCHMARK.json says {unit}")
        out[name] = {"value": got["value"], "unit": unit}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--toy", action="store_true",
                        help="small inputs (the benchmark's own tests)")
    parser.add_argument("--plant-nonfinite", action="store_true",
                        help="plant a NaN belief to exercise the checks")
    args = parser.parse_args()

    binary = build()
    data_dir = os.path.join(BUILD, "data")
    os.makedirs(data_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    if args.trace:
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl")]
    if args.toy:
        cmd.append("--toy")
    if args.plant_nonfinite:
        cmd.append("--plant-nonfinite")

    # Stop the benchmark binary with us if we are terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result line")
    metrics = select_metrics(result["metrics"], args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
