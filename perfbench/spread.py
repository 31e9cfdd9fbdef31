"""Run the benchmark once per seed and report each metric's quartiles.

    python3 perfbench/spread.py --workload tied --seeds 1-10 [--trace 0] [--json out.json]

Runs one at a time, from the checkout root, with the seconds from
BENCHMARK.json.  Prints, per metric, the median, the quartiles and the
spread: the distance between the first and third quartile as a share of the
median (`statistics.quantiles(values, n=4)`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", help="write every run's result line here")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        flag = "" if result["correct"] else "  INCORRECT"
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}{flag}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
