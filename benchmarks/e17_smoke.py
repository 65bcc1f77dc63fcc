#!/usr/bin/env python
"""E17 benchmark smoke: fast perf-regression gate for CI.

Runs the cheap E17 10^4-vehicle cell plus the correlate-path
microbenchmark, replays the crash-recovery cell (kill-at-pump + durable
restore, byte-identity asserted inside the cell), times the durable-log
append/replay paths, writes a fresh ``BENCH_E17.json``, and (with
``--baseline``) fails if batched correlate throughput has regressed
more than ``--tolerance`` (default 30 %) against the value committed in
the baseline JSON.  The batched speedup *ratio* over the same-run
per-event reference is also gated (>= 5x), which is hardware-independent
and catches an algorithmic regression even when the absolute numbers
moved with the host.  Every microbench run doubles as a differential
check: it asserts the three engines end with equal counters and that
the batched engine's snapshot is byte-identical to the per-event
engine's.

Usage (CI)::

    PYTHONPATH=src python benchmarks/e17_smoke.py \
        --baseline benchmarks/results/BENCH_E17.json --out BENCH_E17.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments import e17_soc

SMOKE_GRID = [(10_000, 0.01)]
MIN_SPEEDUP = 5.0
#: Long enough that the same-run per-event twin averages out scheduler
#: noise (the 30k default is too short to hold the ratio steady on a
#: busy host).
CORRELATE_BENCH_EVENTS = 122_880


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="committed BENCH_E17.json to "
                        "regression-check against")
    parser.add_argument("--out", default="BENCH_E17.json",
                        help="where to write the fresh measurement")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    args = parser.parse_args(argv)

    timings: dict = {}
    result = e17_soc.run(grid=SMOKE_GRID, timings=timings)
    rows = {int(r["fleet"]): r for r in result.rows}
    cell = rows[10_000]
    if cell["recall"] < 0.9 or cell["precision"] < 0.9:
        print(f"FAIL: 10^4 cell quality degraded: {cell}")
        return 1

    correlate = e17_soc.correlate_microbench(
        n_events=CORRELATE_BENCH_EVENTS, reps=3)
    # Crash-recovery replay: byte-identity between the kill-and-restore
    # run and its uninterrupted twin is asserted inside the cell -- a
    # divergence raises and fails the job.
    recovery = e17_soc.crash_recovery_cell()
    store = e17_soc.store_microbench()
    cells = [
        {"fleet": float(fleet),
         "offered_eps_sim": rows[fleet]["offered_eps"],
         "wall_s": timing["wall_s"],
         "soc_scene_wall_s": timing["soc_scene_wall_s"],
         "ingest_correlate_eps": timing["ingest_correlate_eps"]}
        for fleet, timing in sorted(timings.items())
    ]
    e17_soc.write_bench_json(args.out, cells, correlate,
                             store=store, recovery=recovery)
    print(f"wrote {args.out}")
    print(f"  batched correlate: {correlate['batched_eps']:,.0f} events/s "
          f"({correlate['speedup_batched_vs_reference']:.1f}x the per-event "
          f"reference baseline)")
    print(f"  crash recovery: replayed {recovery['replayed_events']:,.0f} "
          f"events / {recovery['replayed_pumps']:,.0f} pumps in "
          f"{recovery['recovery_wall_s'] * 1e3:.1f} ms, byte-identical")
    print(f"  durable log: append {store['append_eps']:,.0f} events/s, "
          f"replay {store['replay_eps']:,.0f} events/s")

    failures = []
    if correlate["speedup_batched_vs_reference"] < MIN_SPEEDUP:
        failures.append(
            f"batched speedup {correlate['speedup_batched_vs_reference']:.2f}x "
            f"< required {MIN_SPEEDUP}x over the same-run per-event baseline")

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        committed = baseline["correlate"]["batched_eps"]
        floor = committed * (1.0 - args.tolerance)
        print(f"  committed baseline: {committed:,.0f} events/s "
              f"(floor at -{args.tolerance:.0%}: {floor:,.0f})")
        if correlate["batched_eps"] < floor:
            failures.append(
                f"batched correlate throughput regressed "
                f">{args.tolerance:.0%}: {correlate['batched_eps']:,.0f} "
                f"events/s vs committed {committed:,.0f}")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
