#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload serve_http --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the kddn library from src/) with CMake into
$CARGO_TARGET_DIR, default .bench_build, then runs the kddn_perfbench binary.
Its stdout is passed through; the last line is the result object
{"correct", "attempted", "failed", "metrics"}. That line is printed only if
its metrics are exactly BENCHMARK.json's end-to-end metrics (--trace 0) or
per-layer metrics (--trace 1), each in its declared unit, so a run that
cannot be checked prints no result and exits non-zero.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build(out):
    """Configures and builds the benchmark binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "kddn_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "kddn_perfbench")


def declared_units(trace):
    """Name -> unit of every metric a run with this --trace must print."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, units):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] >= 0
    metrics = result["metrics"]
    assert set(metrics) == set(units), (
        f"missing {sorted(set(units) - set(metrics))}, "
        f"undeclared {sorted(set(metrics) - set(units))}")
    for name, metric in metrics.items():
        assert set(metric) == {"value", "unit"}, f"{name} is malformed"
        assert metric["unit"] == units[name], f"{name} has unit {metric['unit']}"
        assert isinstance(metric["value"], (int, float)), f"{name} not a number"
        assert math.isfinite(metric["value"]), f"{name} is not finite"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_http", "score_bulk", "train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        binary = build(build_dir())
        units = declared_units(args.trace)
    except (subprocess.CalledProcessError, OSError, ValueError) as error:
        print(f"run.py: cannot build or read the benchmark spec: {error}",
              file=sys.stderr)
        return 1
    try:
        proc = subprocess.run(
            [binary, f"--workload={args.workload}", f"--seed={args.seed}",
             f"--seconds={args.seconds}", f"--trace={args.trace}"],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        print(f"run.py: kddn_perfbench exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    try:
        check_result(lines[-1], units)
    except (AssertionError, KeyError, TypeError, ValueError) as error:
        print(f"run.py: malformed result line ({error}): {lines[-1]}",
              file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
