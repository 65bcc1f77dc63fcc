#!/usr/bin/env python
"""E20 benchmark smoke: ingest-hardening perf + recovery gate for CI.

Runs the three E20 hardening cells (plain-vs-CMAC-authenticated
throughput, quota fencing with one hostile flooder, SIGKILL-every-worker
MTTR with a byte-identical differential twin), writes a fresh
``BENCH_E20.json``, and gates:

- **Correctness (always on)**: every cell asserts its own invariants
  before reporting a number -- acked == sent for honest fleets, zero
  honest quota refusals, the flood actually refused *and* disconnected,
  zero admitted-batch ACKs lost across the kills, and the killed run
  byte-identical (raw log segments + analytics snapshots) to its
  uninterrupted twin.
- **Authenticated-eps floor (self-arming)**: with ``--baseline``, the
  authenticated cell's sustained acked eps must not regress more than
  ``--tolerance`` (default 30 %) below the committed figure.  The floor
  is on the *authenticated* eps, not the overhead fraction: the plain
  cell's speed is E19's gate, and a fraction would pass if both modes
  got uniformly slower.  Both figures are host-speed scaled
  (``scaled_eps``): the host's vCPUs drop to about half speed in
  stretches of a fraction of a second to minutes, so the cell runs
  seven times with a reading of each vCPU's speed before, between and
  after the runs, and the fastest run's eps is divided by the mean
  reading -- the eps it would have reached at full speed.
- **Goodput-ratio floor (self-arming)**: honest goodput under attack
  must stay >= ``--goodput-floor`` (default 0.95) of the hostile-free
  baseline run -- the quota layer's whole point.
- **MTTR ceiling (self-arming)**: worst kill-to-recovered time must
  stay within ``--mttr-tolerance`` (default 100 %, i.e. 2x) of the
  committed baseline, with a 100 ms absolute grace floor so a
  millisecond-scale baseline doesn't gate on process-spawn jitter.

Usage (CI)::

    PYTHONPATH=src python benchmarks/e20_smoke.py \
        --baseline benchmarks/results/BENCH_E20.json --out BENCH_E20.json
"""

from __future__ import annotations

import argparse
import json
import sys

from hostscale import fastest_scaled
from repro.experiments import e20_hardening

SMOKE_CLIENTS = 40
SMOKE_ROUNDS = 5
MTTR_GRACE_S = 0.100

#: Runs of the authenticated cell; the gate reads the fastest one.
AUTH_REPEATS = 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="committed BENCH_E20.json to "
                        "regression-check against")
    parser.add_argument("--out", default="BENCH_E20.json",
                        help="where to write the fresh measurement")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression of the "
                        "authenticated-cell eps (default 0.30)")
    parser.add_argument("--goodput-floor", type=float, default=0.95,
                        help="minimum honest goodput ratio under attack "
                        "(default 0.95)")
    parser.add_argument("--mttr-tolerance", type=float, default=1.00,
                        help="allowed fractional MTTR growth vs baseline "
                        "(default 1.00 = 2x ceiling)")
    parser.add_argument("--clients", type=int, default=SMOKE_CLIENTS,
                        help=f"overhead-cell connections (default "
                        f"{SMOKE_CLIENTS})")
    args = parser.parse_args(argv)

    failures = []

    plain = e20_hardening.auth_cell(False, seed=0, n_clients=args.clients,
                                    rounds=SMOKE_ROUNDS)
    authed = fastest_scaled(
        lambda: e20_hardening.auth_cell(True, seed=0, n_clients=args.clients,
                                        rounds=SMOKE_ROUNDS),
        AUTH_REPEATS, "eps", "authenticated")
    cells = {
        "overhead": {"plain": plain, "authenticated": authed,
                     "overhead_frac": 1.0 - authed["eps"] / plain["eps"]},
        "quota": e20_hardening.quota_cell(seed=0),
        "mttr": e20_hardening.mttr_cell(seed=0),
    }
    payload = e20_hardening.write_bench_json(args.out, cells)
    over, quota, mttr = (cells["overhead"], cells["quota"], cells["mttr"])
    print(f"wrote {args.out} (host cpus: {payload['cpu_count']})")
    print(f"  plain: {over['plain']['eps']:,.0f} eps, authenticated: "
          f"{over['authenticated']['eps']:,.0f} eps "
          f"(overhead {over['overhead_frac']:.0%} -- pure-Python "
          "per-batch CMAC)")
    print(f"  authenticated at full host speed: {authed['scaled_eps']:,.0f} "
          f"eps (fastest of {AUTH_REPEATS} runs, mean host speed "
          f"{authed['host_speed']:.2f})")
    print(f"  quota: honest goodput ratio {quota['goodput_ratio']:.3f} "
          f"({quota['quota_refused']:.0f} hostile batches refused, "
          f"{quota['quota_disconnects']:.0f} disconnect)")
    print(f"  mttr: max {mttr['mttr_max_s'] * 1e3:.1f} ms over "
          f"{mttr['workers_killed']:.0f} worker kills, "
          f"{mttr['acks_lost']:.0f} ACKs lost, byte_identical="
          f"{mttr['byte_identical']:.0f}")

    # Correctness re-checks at the gate (the cells already raised if
    # violated; belt and braces for the record in CI logs).
    if mttr["acks_lost"] != 0.0:
        failures.append(f"MTTR cell lost {mttr['acks_lost']:.0f} ACKs")
    if mttr["byte_identical"] != 1.0:
        failures.append("restarted run not byte-identical to its twin")
    if quota["hostile_events_admitted"] > quota["honest_events"]:
        failures.append("quota fence leaked the flood through")

    if quota["goodput_ratio"] < args.goodput_floor:
        failures.append(
            f"honest goodput under attack {quota['goodput_ratio']:.3f} "
            f"< floor {args.goodput_floor:.2f}")
    else:
        print(f"  goodput gate: {quota['goodput_ratio']:.3f} >= "
              f"{args.goodput_floor:.2f}")

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        committed = baseline["cells"]["overhead"]["authenticated"].get(
            "scaled_eps")
        if committed is None:
            failures.append("committed baseline lacks the host-speed "
                            "scaled authenticated eps (scaled_eps)")
        else:
            floor = committed * (1.0 - args.tolerance)
            print(f"  committed authenticated eps at full host speed: "
                  f"{committed:,.0f} (floor at -{args.tolerance:.0%}: "
                  f"{floor:,.0f})")
            if authed["scaled_eps"] < floor:
                failures.append(
                    f"authenticated ingest regressed >{args.tolerance:.0%}: "
                    f"{authed['scaled_eps']:,.0f} scaled eps vs committed "
                    f"{committed:,.0f}")
        committed_mttr = baseline["cells"]["mttr"]["mttr_max_s"]
        ceiling = max(committed_mttr * (1.0 + args.mttr_tolerance),
                      committed_mttr + MTTR_GRACE_S)
        print(f"  committed MTTR max: {committed_mttr * 1e3:.1f} ms "
              f"(ceiling: {ceiling * 1e3:.1f} ms)")
        if mttr["mttr_max_s"] > ceiling:
            failures.append(
                f"worker MTTR regressed: {mttr['mttr_max_s'] * 1e3:.1f} "
                f"ms vs committed {committed_mttr * 1e3:.1f} ms "
                f"(ceiling {ceiling * 1e3:.1f} ms)")
        if "cpu_count" not in baseline:
            failures.append("committed baseline lacks cpu_count")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
