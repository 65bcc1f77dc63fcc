#!/usr/bin/env python
"""E18 benchmark smoke: federated-VSOC perf-regression gate for CI.

Runs a micro federated cell (3 regions, sub-``k``-per-region campaigns,
zero and one-second shipping lag), the partition/heal cell (verdict
equality against the no-outage twin is asserted inside the cell), the
determinism-vs-availability cell (optimistic vs strict under the same
partition; reconciled-state byte-identity is asserted inside the cell
and the optimistic paging latency is gated at 1.5x the no-partition
twin), and the hub apply microbenchmark, writes a fresh
``BENCH_E18.json``, and
(with ``--baseline``) fails if the hub's watermark-gated apply
throughput has regressed more than ``--tolerance`` (default 30 %)
against the committed baseline.  The apply figure is host-speed scaled
like E20's (:mod:`hostscale`): the microbenchmark runs
:data:`HUB_APPLY_REPEATS` times between readings of a pinned
pure-Python loop, and the gate reads the fastest run's eps divided by
the mean reading (``scaled_eps``) against the committed
``hub_apply.scaled_eps``.

Quality gates (always on): every planted cross-region campaign must be
detected at the hub in both lag cells, no records may be left
unapplied, and detection latency must not *decrease* as lag grows.

Usage (CI)::

    PYTHONPATH=src python benchmarks/e18_smoke.py \
        --baseline benchmarks/results/BENCH_E18.json --out BENCH_E18.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from hostscale import fastest_scaled
from repro.experiments import e18_federation

SMOKE_LAGS = (0.0, 1.0)
SMOKE_N_PER_REGION = 500
SMOKE_DURATION_S = 24.0
#: Runs of the hub apply microbenchmark; the gate reads the fastest one.
HUB_APPLY_REPEATS = 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="committed BENCH_E18.json to "
                        "regression-check against")
    parser.add_argument("--out", default="BENCH_E18.json",
                        help="where to write the fresh measurement")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    args = parser.parse_args(argv)

    failures = []

    lag_cells = []
    for lag_s in SMOKE_LAGS:
        cell = e18_federation._lag_cell(
            seed=0, lag_s=lag_s, jitter_s=0.1, duplicate_p=0.02,
            duration_s=SMOKE_DURATION_S, n_per_region=SMOKE_N_PER_REGION)
        lag_cells.append(cell)
        if cell["campaigns_detected"] < cell["campaigns_planted"]:
            failures.append(
                f"lag={lag_s}s cell missed campaigns: "
                f"{cell['campaigns_detected']:.0f}/"
                f"{cell['campaigns_planted']:.0f}")
        if cell["unapplied"]:
            failures.append(
                f"lag={lag_s}s cell left {cell['unapplied']:.0f} records "
                "unapplied after finalize")
    if (not math.isnan(lag_cells[0]["mean_latency_s"])
            and not math.isnan(lag_cells[-1]["mean_latency_s"])
            and lag_cells[-1]["mean_latency_s"]
            < lag_cells[0]["mean_latency_s"] - 1e-9):
        failures.append(
            "detection latency decreased as shipping lag grew: "
            f"{lag_cells[0]['mean_latency_s']:.3f}s @0s vs "
            f"{lag_cells[-1]['mean_latency_s']:.3f}s "
            f"@{SMOKE_LAGS[-1]}s")

    # Partition/heal: verdict-set equality vs the no-outage twin is
    # asserted inside the cell -- a lost campaign raises and fails us.
    partition = e18_federation.partition_heal_cell(
        seed=0, duration_s=SMOKE_DURATION_S,
        n_per_region=SMOKE_N_PER_REGION)
    # Determinism-vs-availability: the optimistic hub rides out the same
    # partition.  Reconciled-state byte-identity with the strict gate is
    # asserted inside the cell; here we gate the payoff -- provisional
    # paging latency under partition must stay within 1.5x the
    # no-partition twin (the strict gate pays far more by stalling).
    availability = e18_federation.availability_cell(
        seed=0, duration_s=SMOKE_DURATION_S,
        n_per_region=SMOKE_N_PER_REGION)
    if availability["latency_ratio"] > 1.5:
        failures.append(
            "optimistic mean latency under partition exceeded 1.5x the "
            f"no-partition twin: ratio {availability['latency_ratio']:.2f}")
    hub_apply = fastest_scaled(e18_federation.hub_apply_microbench,
                               HUB_APPLY_REPEATS, "apply_eps", "hub apply")

    e18_federation.write_bench_json(args.out, lag_cells, partition,
                                    hub_apply, availability=availability)
    print(f"wrote {args.out}")
    for cell in lag_cells:
        print(f"  lag {cell['lag_s']:.1f}s: "
              f"{cell['campaigns_detected']:.0f}/"
              f"{cell['campaigns_planted']:.0f} campaigns, mean latency "
              f"{cell['mean_latency_s']:.3f}s, "
              f"{cell['records_shipped']:,.0f} records shipped "
              f"({cell['receiver_duplicates']:,.0f} dups absorbed)")
    print(f"  partition [{partition['outage_start_s']:.0f},"
          f"{partition['outage_end_s']:.0f}]s: mean latency "
          f"{partition['mean_latency_s']:.3f}s (twin "
          f"{partition['twin_mean_latency_s']:.3f}s), verdicts match twin")
    print(f"  availability: optimistic "
          f"{availability['optimistic_mean_latency_s']:.3f}s"
          f" = {availability['latency_ratio']:.2f}x twin (strict pays "
          f"{availability['strict_latency_ratio']:.2f}x), "
          f"{availability['episodes']:.0f} episodes, "
          f"{availability['amendments_confirmed']:.0f} confirmed / "
          f"{availability['amendments_amended']:.0f} amended / "
          f"{availability['amendments_retracted']:.0f} retracted, "
          f"reconciled state byte-identical to strict")
    print(f"  hub apply: {hub_apply['apply_eps']:,.0f} events/s over "
          f"{hub_apply['regions']:.0f} regions x "
          f"{hub_apply['num_shards']:.0f} shards; at full host speed "
          f"{hub_apply['scaled_eps']:,.0f} (fastest of "
          f"{HUB_APPLY_REPEATS} runs, mean host speed "
          f"{hub_apply['host_speed']:.2f})")

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        committed = baseline["hub_apply"].get("scaled_eps")
        if committed is None:
            failures.append("committed baseline lacks the host-speed "
                            "scaled hub apply eps (scaled_eps)")
        else:
            floor = committed * (1.0 - args.tolerance)
            print(f"  committed hub apply at full host speed: "
                  f"{committed:,.0f} events/s (floor at "
                  f"-{args.tolerance:.0%}: {floor:,.0f})")
            if hub_apply["scaled_eps"] < floor:
                failures.append(
                    f"hub apply throughput regressed "
                    f">{args.tolerance:.0%}: "
                    f"{hub_apply['scaled_eps']:,.0f} scaled events/s vs "
                    f"committed {committed:,.0f}")
        if "partition" not in baseline:
            failures.append("committed baseline lacks the partition cell")
        if "availability" not in baseline:
            failures.append(
                "committed baseline lacks the availability cell")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
