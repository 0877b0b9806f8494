#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the driver measures it.

Runs the benchmark command of BENCHMARK.json `--runs` times per workload,
each time with another --seed, and prints for every end-to-end metric the
median and the distance between the first and third quartile as a share of
the median, next to the metric's bound. A spread should stay below a third
of the bound.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

root = pathlib.Path(__file__).resolve().parent.parent
spec = json.loads((root / "BENCHMARK.json").read_text())

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--workload", action="append")
args = ap.parse_args()

for workload in args.workload or [w["name"] for w in spec["workloads"]]:
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"{workload} seed {seed}: incorrect run")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for name in values:
        m = bounds.get(name, {"name": name, "unit": "", "bound": 0})
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"  {m['name']:22s} median {med:12.4f} {m['unit']:4s} spread {100 * (q3 - q1) / med:5.1f}%  bound {100 * m['bound']:.0f}%")
    sys.stdout.flush()
