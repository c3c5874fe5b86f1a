#!/usr/bin/env python3
"""Spread report: run workloads k times and summarise each metric.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each run goes through run.py with its own
seed (first-seed, first-seed + 1, ...).  For every metric the report prints
the median, the quartiles (statistics.quantiles, n=4), IQR / median and, for
end-to-end metrics, the bound from BENCHMARK.json and whether the spread is
within a third of it (the margin the bounds were set with).  It also reports
failed runs, whether the control loop of every traced run (--trace 1) made
the same decisions, and per run the load averages, stolen CPU time and the
rounds dropped as disturbed.
Exits 1 if a run failed or a spread exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    regime = {}
    for line in lines:
        if line.startswith("regime: "):
            regime = json.loads(line[len("regime: "):])
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, regime, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values, digests, failures = {}, set(), 0
        print(f"== {workload}: {args.runs} runs, {args.seconds:g} s, "
              f"trace {args.trace}")
        for i in range(args.runs):
            seed = args.first_seed + i
            code, regime, result = run_once(workload, seed, args.seconds,
                                            args.trace)
            if result is None or not result["correct"] or result["failed"]:
                failures += 1
                print(f"  seed {seed}: FAILED (exit {code})")
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if "control_decision_digest" in regime:
                digests.add(regime["control_decision_digest"])
            print(f"  seed {seed}: loadavg {regime.get('loadavg_before')} -> "
                  f"{regime.get('loadavg_after')}, host speed "
                  f"{regime.get('host_speed_before', 0):.0f} -> "
                  f"{regime.get('host_speed_after', 0):.0f}, steal "
                  f"{regime.get('cpu_steal_share', 0):.3f}, disturbed rounds "
                  f"{regime.get('disturbed_rounds')}/"
                  f"{regime.get('measured_rounds')} (dropped: "
                  f"{regime.get('disturbed_rounds_dropped')}), attempted "
                  f"{result['attempted']}")
        ok = ok and failures == 0
        print(f"  {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'iqr/med':>8s} {'bound':>6s}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag, ok = "OVER BOUND", False
                elif spread > bound / 3:
                    flag = "above bound/3"
            print(f"  {name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {'' if bound is None else bound:>6} {flag}")
        if digests:
            same = "identical" if len(digests) == 1 else "DIFFERENT"
            ok = ok and len(digests) == 1
            print(f"  decisions across runs: {same} ({len(digests)} digests)")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
