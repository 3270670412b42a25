"""Repeat one workload over several seeds and print medians and spreads.

Run from the repository root::

    python3 perfbench/repeat.py --workload online --seeds 101-110 --seconds 30

For every end-to-end metric it prints the median of the runs, the first
and third quartiles as ``statistics.quantiles(values, n=4)`` gives them,
and the spread (Q3 - Q1) / median that the bounds in ``BENCHMARK.json``
were set against.  Each run is a fresh ``run.py`` process, one after
another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT_DIR = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()

    values: Dict[str, List[float]] = {}
    failed_share = set()
    for seed in parse_seeds(args.seeds):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT_DIR, capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - started
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed_share.add(result["failed"] / result["attempted"])
        print(f"seed {seed}: {elapsed:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"failed share per run: {sorted(failed_share)}")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        print(f"{name:28s} {q2:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
