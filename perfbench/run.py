#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds the
library and the `tolbench` binary (Release) into `.bench_build/`; later calls
rebuild only what changed.  Build output goes to stderr.

The binary's stdout is passed through: a regime record, one line per failed
correctness check, and as the last line the result object
{"correct", "attempted", "failed", "metrics"}.  That object is checked
against BENCHMARK.json before it is printed: with --trace 0 it must hold
every end-to-end metric, with --trace 1 every per-layer metric, each in its
declared unit.  A per-layer metric the run does not produce is reported
as 0.  Exits non-zero, without a result line, if the sources are missing,
the build fails or the output does not match BENCHMARK.json; exits 1 after
the result line if a correctness check failed.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "tolbench"


def die(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no library sources next to {HERE.name}/ (need CMakeLists.txt and src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "tolbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd), 3)


def check_metrics(result, spec, trace):
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        die(f"metrics not declared in BENCHMARK.json: {unknown}", 4)
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                die(f"end-to-end metric {name} missing", 4)
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            die(f"{name}: unit {metrics[name]['unit']} != declared {unit}", 4)
    result["metrics"] = {name: metrics[name] for name in units}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload}")
    build()

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        die(f"tolbench did not finish within {args.seconds + 120:.0f} s", 5)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die(f"tolbench exited with {proc.returncode}", 5)
    result = json.loads(lines[-1])
    check_metrics(result, spec, args.trace == "1")
    for line in lines[:-1]:
        print(line)
    print(f"wall_s: {time.monotonic() - started:.3f}")
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
