"""Check that the traced counters repeat exactly for a seed.

    python3 perfbench/check_counters.py [--workload NAME|all] [--seed N] [--seconds S]

Runs ``run.py --trace 1`` twice with the same seed and compares every
per-op counter (calls, rows, crossovers, locus vertices, SVG and I/O
bytes) of the ops both runs traced. Op ``i`` gets the same input in both
runs, so any difference is a counter that cannot be cited as a count.
Exits 1 on a mismatch.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"
WORKLOADS = ("quickstart", "screen-batch", "crossover-rich")


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    record = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace1.json").read_text())
    return record["op_counts"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    args = p.parse_args(argv)
    status = 0
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        first = traced_counts(name, args.seed, args.seconds)
        second = traced_counts(name, args.seed, args.seconds)
        common = sorted(set(first) & set(second), key=int)
        diffs = [
            (op, key, first[op][key], second[op].get(key))
            for op in common
            for key in first[op]
            if first[op][key] != second[op].get(key)
        ]
        print(f"{name}: {len(common)} traced ops compared, {len(diffs)} counter mismatches")
        for op, key, a, b in diffs[:10]:
            print(f"  op {op} {key}: {a} != {b}")
        if diffs or not common:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
