"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload storm-replay --runs 10 [--trace 0]

Runs ``run.py`` once per seed (1..runs) and prints, per metric, the
median and the quartile spread ``(Q3 - Q1) / median`` as
``statistics.quantiles(values, n=4)`` gives the quartiles -- the figure
to hold under each end-to-end metric's ``bound`` in ``BENCHMARK.json``.
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


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())
                        ["run_seconds"] if (HERE.parent / "BENCHMARK.json").exists() else 10)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=str(HERE.parent), capture_output=True, text=True, timeout=900)
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-4000:], file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {wall:.1f}s " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for k, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{k:40s} median {med:12.5g}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
