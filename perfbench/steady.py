"""Steadiness check: run each workload N times and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --first-seed 1 [--workload NAME ...] [--trace 1]

Every run uses its own seed (``first-seed``, ``first-seed + 1``, ...).  For
each workload and metric it prints the median, the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``), the largest
run-to-run spread ``(max - min) / median``, and the share of failed
operations.  With ``--trace 0`` it also compares each IQR with the
metric's bound in ``BENCHMARK.json``, ``setup_s`` included: ``ok`` within a
third of the bound, ``LOOSE`` within the bound, ``WIDE`` beyond it.  It
exits 1 if any metric is ``WIDE`` or a run reports ``correct: false``.  The
bounds were set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [entry["name"] for entry in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()
    bounds = {entry["name"]: entry["bound"] for entry in config["end_to_end"]}

    verdict = 0
    for workload in args.workload or names:
        results = []
        for offset in range(args.runs):
            result = run_once(workload, args.first_seed + offset, args.seconds, args.trace)
            results.append(result)
            print(f"  {workload} seed {args.first_seed + offset}: done", file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"== {workload}: {args.runs} runs, failed share {sorted(shares)}")
        if not all(r["correct"] for r in results):
            print("   a run reported correct=false")
            verdict = 1
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            middle = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            iqr = (q3 - q1) / abs(middle) if middle else float("nan")
            widest = (max(values) - min(values)) / abs(middle) if middle else float("nan")
            line = f"   {name:30s} {middle:14.6g} {unit:8s} iqr {iqr:7.2%}  max spread {widest:7.2%}"
            if args.trace == 0 and name in bounds:
                bound = bounds[name]
                state = "ok" if iqr <= bound / 3 else "LOOSE" if iqr <= bound else "WIDE"
                line += f"  bound {bound:.2f} {state}"
                verdict |= state == "WIDE"
            print(line, flush=True)
            if args.verbose:
                print("      " + " ".join(f"{value:.5g}" for value in values))
    return verdict


if __name__ == "__main__":
    sys.exit(main())
