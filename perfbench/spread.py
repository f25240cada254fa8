#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's median and
spread (the distance between the first and third quartiles, as a share of
the median) against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workload query-hot --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out runs.json

Run it from the repository root. Every run's result line is checked: the
four keys, whole-number counts, and exactly the metrics declared in
BENCHMARK.json, each in its unit (every end-to-end metric with --trace 0,
every per-layer metric with --trace 1, on every workload).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.time()
    done = subprocess.run(cmd, capture_output=True, text=True)
    took = time.time() - start
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{workload} seed {seed}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        sys.exit(f"{workload} seed {seed}: bad counts")
    declared = {m["name"]: m for m in bench["per_layer" if trace else "end_to_end"]}
    unknown = set(result["metrics"]) - set(declared)
    if unknown:
        sys.exit(f"{workload} seed {seed}: undeclared metrics {sorted(unknown)}")
    missing = set(declared) - set(result["metrics"])
    if missing:
        sys.exit(f"{workload} seed {seed}: declared metrics missing {sorted(missing)}")
    for name, m in result["metrics"].items():
        if m["unit"] != declared[name]["unit"]:
            sys.exit(f"{workload} seed {seed}: {name} unit {m['unit']}")
    return result, took


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every result line here as JSON")
    args = parser.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    everything = {}
    for workload in workloads:
        rows = []
        for seed in args.seeds:
            result, took = run(bench, workload, seed, args.trace)
            rows.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {took:.1f}s", flush=True)
        everything[workload] = rows
        print(f"\n{workload}: {len(rows)} runs, all correct: {all(r['correct'] for r in rows)}")
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rows if name in r["metrics"]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = ("ok" if spread <= bound / 3 else
                           "within bound" if spread <= bound else "OVER BOUND")
            print(f"  {name:34s} median {med:14.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound if bound is not None else '-'}  {verdict}")
        print()
    if args.out:
        json.dump(everything, open(args.out, "w"), indent=1)


if __name__ == "__main__":
    main()
