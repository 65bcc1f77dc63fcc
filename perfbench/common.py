"""Shared pieces of the VSOC benchmark: the result line, statistics,
the span tracer, and shipping regional logs to a federation hub."""

from __future__ import annotations

import gc
import json
import math
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.soc import (
    DurableStore,
    FederationHub,
    SegmentShipper,
    ShippingChannel,
    recover_soc_state,
)

#: Units of every metric the benchmark prints, by name.
UNITS: Dict[str, str] = {
    "setup_s": "s",
    "acked_eps": "events/s",
    "peak_rss_mb": "MB",
    "recover_s": "s",
    "hub_apply_eps": "events/s",
}


class CheckFailed(RuntimeError):
    """An output of the program under test was wrong."""


def note(text: str) -> None:
    """Human-readable progress; the result is always the last line."""
    print(text, flush=True)


@dataclass
class Result:
    attempted: int
    failed: int
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def line(self, trace: bool) -> str:
        if trace:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in self.per_layer.items()}
        else:
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in self.end_to_end.items()}
        return json.dumps({"correct": True, "attempted": int(self.attempted),
                           "failed": int(self.failed), "metrics": metrics})


def median(values: Sequence[float]) -> float:
    return percentile(sorted(values), 0.5)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise CheckFailed("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


#: A latency tail is the highest percentile up to TAIL_Q_MAX that still
#: has at least TAIL_BEYOND samples above it.
TAIL_Q_MAX = 0.99
TAIL_BEYOND = 10


def tail_percentile(sorted_values: Sequence[float]) -> Tuple[float, float]:
    """The latency tail of already sorted values; returns ``(q, value)``."""
    n = len(sorted_values)
    q = max(0.5, min(TAIL_Q_MAX, 1.0 - TAIL_BEYOND / n)) if n else TAIL_Q_MAX
    return q, percentile(sorted_values, q)


#: Seconds the calibration loop takes on one vCPU of the reference host
#: at full speed.  Timed figures are scaled to that speed (``HostSpeed``).
REFERENCE_CALIBRATION_S = 1.66e-3
#: Calls of the calibration loop per vCPU and reading.  A slow stretch
#: slows some calls and not others, so their mean counts.
CALIBRATION_CALLS = 8


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop of about 2 ms."""
    t0 = time.perf_counter()
    table: Dict[str, int] = {}
    for i in range(6000):
        key = "k%d" % (i % 499)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


class HostSpeed:
    """The host's speed now, as a share of the reference host's full speed.

    Each vCPU of the reference host runs at full speed or at about half
    speed, in stretches of a fraction of a second to minutes as other
    tenants come and go, and CPU time slows with it (see README.md).  A reading runs the
    calibration loop pinned to each vCPU read in turn; a timed piece is
    read before and after, and its seconds are multiplied by the mean of
    the two readings: the seconds it would have taken at full speed.
    Readings are taken only while the service under test is idle."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0
        self.readings: List[float] = []

    def read(self, cpus: Optional[Sequence[int]] = None) -> float:
        """Mean speed of ``cpus`` (default: the vCPUs this process may
        run on now); 1.0 is full speed."""
        allowed = os.sched_getaffinity(0)
        out = []
        try:
            for cpu in cpus or sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                cal = sum(calibration_s() for _ in range(CALIBRATION_CALLS))
                out.append(REFERENCE_CALIBRATION_S * CALIBRATION_CALLS / cal)
        finally:
            os.sched_setaffinity(0, allowed)
        self.readings.append(sum(out) / len(out))
        return self.readings[-1]

    @contextmanager
    def pinned(self):
        """Pin this process to the next vCPU in turn for the block."""
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
        self.turn += 1
        try:
            yield
        finally:
            os.sched_setaffinity(0, allowed)

    def timed(self, fn, *args):
        """Run ``fn(*args)`` between two readings; returns its result and
        its seconds scaled by their mean."""
        results, seconds = self.timed_all([(fn, *args)])
        return results[0], seconds[0]

    def timed_all(self, calls) -> Tuple[list, List[float]]:
        """Run each ``(fn, *args)`` of ``calls`` in turn with a reading
        before, between and after them; returns their results and their
        scaled seconds."""
        reading = self.read()
        results = []
        scaled = []
        for fn, *args in calls:
            t0 = time.perf_counter()
            results.append(fn(*args))
            seconds = time.perf_counter() - t0
            previous, reading = reading, self.read()
            scaled.append(seconds * (previous + reading) / 2)
        return results, scaled


class FixedSpeed(HostSpeed):
    """No readings: times stay as measured (the traced replays)."""

    def read(self, cpus: Optional[Sequence[int]] = None) -> float:
        return 1.0


def freeze_inputs() -> None:
    """Move everything alive now -- the generated inputs -- out of the
    cyclic garbage collector's view, so its pauses scale with the
    program's own objects rather than with the benchmark's inputs."""
    gc.collect()
    gc.freeze()


def restart(store_root: Path):
    """Restart analytic state from a durable store with
    ``recover_soc_state`` (latest snapshot plus the log after it)."""
    store = DurableStore(store_root)
    try:
        return recover_soc_state(store)
    finally:
        store.close()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ----------------------------------------------------------------------
# Tracing: spans around the benchmark's calls into each layer
# ----------------------------------------------------------------------

class Tracer:
    """In-memory spans ``[name, parent, start, end]``; a span's parent is
    the span open when it began.  Self time is a span's duration minus
    the durations of its direct children."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1,
                           time.perf_counter(), 0.0])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` as a span (an instance
        attribute shadowing the method; absent attributes are skipped)."""
        fn = getattr(obj, attr, None)
        if fn is None:
            return
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        setattr(obj, attr, traced)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, inclusive ``total`` and ``self``
        seconds."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            t = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
            t["count"] += 1
            t["total"] += end - start
            t["self"] += end - start - child[i]
        return out


def write_spans(tracers: Sequence[Tracer], path: Path) -> None:
    """Write every span as one JSON line ``[tracer, name, parent, start,
    end]`` (``parent`` indexes the same tracer's spans; -1 for a root)."""
    with open(path, "w") as fh:
        for k, tracer in enumerate(tracers):
            for name, parent, start, end in tracer.spans:
                fh.write(json.dumps([k, name, parent, start, end]) + "\n")


class NullTracer(Tracer):
    """Same calls, nothing recorded: the untraced twin of a replay."""

    def begin(self, name: str) -> int:
        return -1

    def end(self, index: int) -> None:
        pass

    def wrap(self, obj, attr: str, name: str) -> None:
        pass


# ----------------------------------------------------------------------
# Federation: ship regional logs into a hub
# ----------------------------------------------------------------------

def ship_to_hub(stores: Dict[str, object], profile: Dict[str, object], seed: int,
                tracer: Optional[Tracer] = None,
                speed: Optional[HostSpeed] = None) -> Dict[str, object]:
    """Ship every region's whole log through a zero-lag
    ``ShippingChannel`` into a ``FederationHub`` built from the regions'
    profile, and finalize it.  ``ship_s`` times the shippers' pump and
    the channels' delivery.  ``apply_s`` times only the hub's
    ``receive``/``advance``/``finalize``, in pieces scaled by ``speed``'s
    readings between them: each region's shipments received, then the
    advance, then the finalize."""
    tracer = tracer or NullTracer()
    speed = speed or FixedSpeed()
    hub = FederationHub.from_profile(list(stores), profile)
    tracer.wrap(hub, "receive", "federation.apply")
    tracer.wrap(hub, "advance", "federation.apply")
    tracer.wrap(hub, "finalize", "federation.apply")

    def receive_all(region: str, blobs) -> None:
        for blob in blobs:
            if not hub.receive(blob):
                raise CheckFailed(f"hub refused a shipment from {region}")

    ship_s = 0.0
    records = 0
    calls = []
    for region, store in stores.items():
        channel = ShippingChannel(random.Random(seed))
        shipper = SegmentShipper(region, store.log, channel)
        tracer.wrap(shipper, "pump", "federation.ship")
        tracer.wrap(channel, "deliver", "federation.ship")
        t0 = time.perf_counter()
        records += shipper.pump(0.0)
        blobs = channel.deliver(float("inf"))
        ship_s += time.perf_counter() - t0
        calls.append((receive_all, region, blobs))
    apply_s = sum(speed.timed_all(calls + [(hub.advance, 0.0), (hub.finalize, 0.0)])[1])
    if hub.unapplied():
        raise CheckFailed(f"hub left {hub.unapplied()} shipped records unapplied")
    return {"hub": hub, "flagged": hub.flagged_signatures(), "apply_s": apply_s,
            "ship_s": ship_s, "records": records}
