#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3] [--trace 0]

For every metric: the median of the runs' values and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound in BENCHMARK.json.
Run from the root of the repository.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    manifest = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or manifest["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    values = {}
    for seed in args.seeds.split(","):
        cmd = manifest["command"] + [
            "--workload", args.workload, "--seed", seed,
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
        print(f"{name:32s} median={med:<12.5g} spread={spread:.4f} "
              f"bound={bound} {flag}")


if __name__ == "__main__":
    main()
