"""Host-speed scaling for the CI throughput gates.

The CI hosts' vCPUs drop to about half speed in stretches of a fraction
of a second to minutes, so a single timed run can read far below what
the code does at full speed.  A gated cell therefore runs several times
with a reading of each vCPU's speed before, between and after the runs,
and the gate reads the fastest run's throughput divided by the mean
reading (``scaled_eps``): the throughput it would have reached at the
reference host's full speed.  ``e18_smoke.py`` and ``e20_smoke.py`` use
it.
"""

from __future__ import annotations

import os
import time

#: Seconds :func:`calibration_s` takes on one vCPU of the reference host
#: (a 2-vCPU KVM guest, CPython 3.11) at full speed.
REFERENCE_CALIBRATION_S = 1.66e-3
#: Calls of the calibration loop per vCPU and reading.  A slow stretch
#: slows some calls and not others, so their mean counts.
CALIBRATION_CALLS = 8


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop of about 2 ms."""
    t0 = time.perf_counter()
    table = {}
    for i in range(6000):
        key = "k%d" % (i % 499)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


def host_speed() -> float:
    """Mean speed of the vCPUs this process may run on, each read with
    the calibration loop pinned to it; 1.0 is the reference host's full
    speed."""
    allowed = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            cal = sum(calibration_s() for _ in range(CALIBRATION_CALLS))
            speeds.append(REFERENCE_CALIBRATION_S * CALIBRATION_CALLS / cal)
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(speeds) / len(speeds)


def fastest_scaled(run, repeats: int, key: str, label: str):
    """Call ``run()`` ``repeats`` times with a host-speed reading before,
    between and after the calls; each returns a dict of figures.

    Returns the result with the largest ``key`` (events per second),
    with ``host_speed`` (the mean of all the readings), ``scaled_eps``
    (its ``key`` divided by that mean) and ``repeats`` added.
    Interference from other tenants only ever slows a run, so the
    fastest run is the least disturbed one; a single ~50 ms reading is
    itself noisy, so the scale is the mean over the whole series, which
    follows the slow stretches that last seconds to minutes."""
    speeds = [host_speed()]
    best = None
    for _ in range(repeats):
        result = run()
        speeds.append(host_speed())
        print(f"  {label} run: {result[key]:,.0f} eps (host speed "
              f"{speeds[-2]:.2f} before, {speeds[-1]:.2f} after)")
        if best is None or result[key] > best[key]:
            best = result
    best["host_speed"] = sum(speeds) / len(speeds)
    best["scaled_eps"] = best[key] / best["host_speed"]
    best["repeats"] = float(repeats)
    return best
