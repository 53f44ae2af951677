#!/usr/bin/env python3
"""Runs the benchmark several times and reports each metric's spread.

    python3 perfbench/spread.py --workload serve_hot --seeds 1-10 [--trace 1]

Runs the command from BENCHMARK.json once per seed, from the repository
root, and prints for every metric the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound. With --json FILE the
per-run results and the summary are also written to FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--json")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    declared = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    runs = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        notes = [l for l in proc.stdout.splitlines() if l.startswith("# ") and ("FLAG" in l or "GATE" in l or "steal" in l)]
        runs.append({"seed": seed, "result": result, "notes": notes})
        values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in declared)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
        for note in notes:
            print(f"  {note}")
    summary = {}
    print(f"\n{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for m in declared:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = m.get("bound")
        summary[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{m['name']:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace, "seconds": seconds,
                       "runs": runs, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
