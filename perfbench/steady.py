"""Steadiness check: repeat runs and report each metric's spread.

    python3 perfbench/steady.py --runs 10 [--workloads presets sweep_n]
                                [--first-seed 1] [--save FILE]

Runs perfbench/run.py once per seed for every workload, alternating the
workload order between repetitions, and prints for every metric the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median. A metric whose spread exceeds its bound in
BENCHMARK.json is flagged OVER; one above a third of its bound, WIDE.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", help="write every run's result to this JSON file")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for rep in range(args.runs):
        order = args.workloads if rep % 2 == 0 else args.workloads[::-1]
        for w in order:
            seed = args.first_seed + rep
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 check=True).stdout.splitlines()
            res = json.loads(out[-1])
            results[w].append(res)
            brief = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
            print(f"# {w} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {brief}", flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)

    for w, runs in results.items():
        print(f"\n{w}: {len(runs)} runs")
        for key in runs[0]["metrics"]:
            vals = [r["metrics"][key]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds[key]
            flag = "OVER" if spread > bound else ("WIDE" if spread > bound / 3 else "ok")
            print(f"  {key:28s} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={spread:.4f} bound={bound} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
