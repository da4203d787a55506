"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload capsule_mix --seeds 1 2 3 4 5 \
        [--seconds 10] [--trace 0]

Runs perfbench/run.sh once per seed, one after another, from the
repository root, and prints for each metric its median and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the bound BENCHMARK.json gives it.  Also
checks that every run reported correct, with no failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    ok = True
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"] != 0:
            ok = False
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    print(f"{'metric':30s} {'median':>14s} {'iqr/median':>10s} {'bound':>6s}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  above bound/3"
        print(f"{name:30s} {med:14.6g} {spread:10.4f} {bound if bound is not None else '-':>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
