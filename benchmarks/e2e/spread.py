#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end benchmark.

    python3 benchmarks/e2e/spread.py [--runs K] [--workload NAME ...]
        [--seed-base N] [--save PATH] [--against PATH]

Runs ``run.py`` K times per workload (default 5), each run with its
own seed, and prints for every end-to-end metric the median, the
distance between the quartiles as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them) and
(max - min) / median.  Exits non-zero when a run fails its checks, or
when a metric spreads by more than its bound in ``BENCHMARK.json``; a
spread above a third of the bound is marked.  ``--save`` writes every
value to a JSON file; ``--against`` such a file also fails the check
when a median is worse than the saved median by more than the metric's
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_once(workload: str, seed: int) -> tuple[dict, float]:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result")
    return json.loads(lines[-1]), wall


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, IQR / median, (max - min) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med, (max(values) - min(values)) / med


def worse_by(metric: dict, old: float, new: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--workload", action="append", metavar="NAME")
    p.add_argument("--seed-base", type=int, default=100)
    p.add_argument("--save", type=Path)
    p.add_argument("--against", type=Path)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    earlier = json.loads(args.against.read_text()) if args.against else {}
    values: dict = {}
    problems: list[str] = []
    for name in names:
        values[name] = {m: [] for m in metrics}
        walls = []
        for k in range(args.runs):
            res, wall = run_once(name, args.seed_base + k)
            walls.append(wall)
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} seed {args.seed_base + k}: failed")
            for m, v in res["metrics"].items():
                values[name][m].append(v["value"])
        print(
            f"{name}: {args.runs} runs, wall median "
            f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s"
        )
        print(
            f"  {'metric':14s} {'median':>12s} {'IQR/med':>8s} "
            f"{'range/med':>9s} {'bound':>6s}"
        )
        for m, spec_m in metrics.items():
            med, iqr, rng = spread(values[name][m])
            flag = ""
            if iqr > spec_m["bound"]:
                flag = "  SPREAD > BOUND"
                problems.append(f"{name} {m}: IQR/median {iqr:.3f}")
            elif iqr > spec_m["bound"] / 3:
                flag = "  spread > bound/3"
            old = earlier.get(name, {}).get(m)
            if old:
                w = worse_by(spec_m, statistics.median(old), med)
                flag += f"  vs saved {w:+.3f}"
                if w > spec_m["bound"]:
                    flag += " WORSE"
                    problems.append(f"{name} {m}: worse by {w:.3f}")
            print(
                f"  {m:14s} {med:12.5g} {iqr:8.3f} {rng:9.3f} "
                f"{spec_m['bound']:6.2f}{flag}"
            )
    if args.save:
        args.save.write_text(json.dumps(values, indent=1) + "\n")
    for line in problems:
        print("FAIL", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
