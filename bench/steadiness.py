"""Run one workload on several seeds and report each metric's median and spread.

    python3 bench/steadiness.py --workload small-sweep --seeds 1-10 [--seconds 20] [--trace 0]

The spread is the distance between the first and third quartile of the
per-run values (``statistics.quantiles(values, n=4)``) as a share of their
median; BENCHMARK.json bounds must stay above it.  Runs are sequential, one
process at a time, each waited for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"] / result["attempted"]))
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: wall {wall:.1f} s, correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}, {line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"failed shares seen: {sorted(shares)}")
    for name, vals in values.items():
        if len(vals) < 2 or not isinstance(vals[0], float):
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = f", bound {bound}, spread/bound {spread / bound:.2f}" if bound else ""
        print(f"{name}: median {med:.6g}, spread {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
