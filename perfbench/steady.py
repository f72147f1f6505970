#!/usr/bin/env python3
"""Steadiness check: run each workload k times and show the spread.

Run from the repository root::

    python3 perfbench/steady.py --runs 10 [--workload read-obs ...] [--seed0 100]

Each run uses its own seed (``seed0``, ``seed0 + 1``, ...).  For every
end-to-end metric it prints the median, the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``), and
max/min, both for the host-normalised value and for the raw wall value,
beside the metric's bound from ``BENCHMARK.json``.  A normalised spread
(``setup_s`` aside) at or above a third of its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(normalised, raw) end-to-end metrics of one run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({done.returncode}):\n{done.stdout[-2000:]}"
                         f"\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    raw = {}
    for line in lines:
        if line.startswith("# raw "):
            raw = json.loads(line[len("# raw "):])
    scaled = {name: entry["value"]
              for name, entry in result["metrics"].items()}
    return scaled, raw


def spread(values: list) -> tuple[float, float, float]:
    """(median, IQR / median, max / min)."""
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (median, (q3 - q1) / median if median else 0.0,
            max(values) / min(values) if min(values) else 0.0)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        runs = [run_once(workload, args.seed0 + i, args.seconds)
                for i in range(args.runs)]
        print(f"\n{workload}: {args.runs} runs, seeds {args.seed0}.."
              f"{args.seed0 + args.runs - 1}")
        print(f"  {'metric':16s} {'bound':>6s} | {'median':>11s} "
              f"{'iqr/med':>8s} {'max/min':>8s} | {'raw median':>11s} "
              f"{'iqr/med':>8s} {'max/min':>8s}")
        for name, bound in bounds.items():
            median, iqr, ratio = spread([r[0][name] for r in runs])
            raw = spread([r[1][name] for r in runs])
            flag = ""
            if name != "setup_s" and iqr >= bound / 3:
                flag = "  <-- spread >= bound/3"
                steady = False
            print(f"  {name:16s} {bound:6.3f} | {median:11.3f} "
                  f"{iqr:8.3f} {ratio:8.3f} | {raw[0]:11.3f} "
                  f"{raw[1]:8.3f} {raw[2]:8.3f}{flag}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
