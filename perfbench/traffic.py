"""Seeded VSOC traffic: the only inputs the program under test sees.

Two generators, both pure functions of their seed and arguments:

- :func:`uplink_phase` -- background IDS telemetry from the vehicles
  behind a few telematics gateways, plus a few planted campaigns.
  Background signatures are shared by at most two vehicles (a vehicle
  pair), so fewer than ``k`` vehicles ever share one inside a window
  and exactly the planted campaigns fire.
- :func:`storm_scene` -- a class-break storm over a big fleet split into
  regions by vehicle-id space: a few signatures hit a large share of the
  fleet, on top of the same pairwise background, with duplicates and
  late or out-of-order deliveries.

Events are stamped at or before their send time and monotonically per
gateway, so admission never rejects one for lying in the future.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.soc import EventSource, SecurityEvent, make_event

#: Source mix of the background telemetry: (source, signature prefix,
#: weight).  The weights are an assumption, not field data (README.md).
#: V2X is ASIL A, below the correlator's campaign floor, so it is
#: admitted, logged and counted but can never seed a campaign.
SOURCE_MIX: Tuple[Tuple[EventSource, str, float], ...] = (
    (EventSource.IDS, "ids", 0.50),
    (EventSource.GATEWAY, "gateway", 0.25),
    (EventSource.DIAG, "diag", 0.15),
    (EventSource.V2X, "v2x", 0.10),
)
#: Background signatures per vehicle pair.
SIGS_PER_PAIR = 4
#: Vehicles that report each planted uplink campaign (k is 3).
CAMPAIGN_VEHICLES = 6


class SeqCounter:
    """Per-vehicle monotonically increasing sequence numbers."""

    def __init__(self) -> None:
        self.next: Dict[str, int] = {}

    def __call__(self, vehicle: str) -> int:
        seq = self.next.get(vehicle, 0)
        self.next[vehicle] = seq + 1
        return seq


def pick_sources(rng: random.Random, n: int) -> List[Tuple[EventSource, str]]:
    weights = [w for _, _, w in SOURCE_MIX]
    return [(src, prefix) for src, prefix, _ in
            rng.choices(SOURCE_MIX, weights=weights, k=n)]


def background_event(rng: random.Random, seqs: SeqCounter, vehicles: Sequence[str],
                     index: int, group: str, source: Tuple[EventSource, str],
                     t: float) -> SecurityEvent:
    """One pairwise-background event from vehicle ``vehicles[index]``:
    its signature is shared only with its pair partner."""
    vehicle = vehicles[index]
    src, prefix = source
    sig = f"{prefix}.bg.{group}.p{index // 2:05d}.{rng.randrange(SIGS_PER_PAIR)}"
    return make_event(vehicle, src, sig, t, seqs(vehicle))


# ----------------------------------------------------------------------
# Uplink: gateways multiplexing vehicles over one connection each
# ----------------------------------------------------------------------

@dataclass
class UplinkFleet:
    """The vehicles behind each gateway connection."""

    gateways: int
    vehicles: List[List[str]]
    seqs: SeqCounter

    @classmethod
    def build(cls, seed: int, gateways: int, vehicles_per_gateway: int) -> "UplinkFleet":
        return cls(gateways,
                   [[f"s{seed}-g{g}-v{i:05d}" for i in range(vehicles_per_gateway)]
                    for g in range(gateways)],
                   SeqCounter())


def uplink_phase(rng: random.Random, fleet: UplinkFleet, phase: str,
                 stamps: Sequence[Sequence[float]], campaigns: int
                 ) -> Tuple[List[List[SecurityEvent]], Set[str]]:
    """Events per gateway, the ``i``-th stamped ``stamps[g][i]`` (which
    must be non-decreasing), with ``campaigns`` planted campaigns whose
    signatures are returned.  Each planted campaign takes background
    slots on every gateway: ``CAMPAIGN_VEHICLES`` vehicles report it
    close together, then once more a little later (a flagged-signature
    hit that attaches to the open incident)."""
    out: List[List[SecurityEvent]] = []
    per_gateway = -(-CAMPAIGN_VEHICLES // fleet.gateways)
    planted: Set[str] = set()
    slots: Dict[Tuple[int, int], Tuple[str, str]] = {}
    for c in range(campaigns):
        sig = f"ids.campaign.{phase}.{c}"
        planted.add(sig)
        for g in range(fleet.gateways):
            n = len(stamps[g])
            start = (c + 1) * n // (campaigns + 1)
            chosen = rng.sample(fleet.vehicles[g], per_gateway)
            for v, vehicle in enumerate(chosen):
                for slot in (start + 3 * v, start + 3 * v + n // (4 * (campaigns + 1))):
                    slots[(g, min(slot, n - 1))] = (vehicle, sig)
    for g in range(fleet.gateways):
        vehicles = fleet.vehicles[g]
        times = stamps[g]
        sources = pick_sources(rng, len(times))
        events: List[SecurityEvent] = []
        for i, t in enumerate(times):
            hit = slots.get((g, i))
            if hit is not None:
                vehicle, sig = hit
                events.append(make_event(vehicle, EventSource.IDS, sig, t,
                                         fleet.seqs(vehicle)))
            else:
                events.append(background_event(
                    rng, fleet.seqs, vehicles, rng.randrange(len(vehicles)),
                    f"g{g}", sources[i], t))
        out.append(events)
    return out, planted


def linear_stamps(n: int, t0: float, t1: float) -> List[float]:
    """``n`` non-decreasing stamps spread evenly over ``[t0, t1]``."""
    step = (t1 - t0) / max(1, n - 1)
    return [t0 + i * step for i in range(n)]


def open_loop_stamps(batches: int, batch_events: int, gateways: int,
                     t_open: float, batch_rate: float
                     ) -> Tuple[List[List[float]], List[List[float]]]:
    """Open-loop schedule: global batch ``b`` is due at ``t_open +
    b / batch_rate`` on gateway ``b % gateways``.  Returns per gateway
    the due time of each batch and the stamp of each event; a batch's
    events are stamped in the gap before its due time, the last one at
    the due time itself, so stamps never pass the send time and rise
    monotonically per gateway."""
    gap = gateways / batch_rate
    due: List[List[float]] = [[] for _ in range(gateways)]
    stamps: List[List[float]] = [[] for _ in range(gateways)]
    for b in range(batches):
        g = b % gateways
        t = t_open + b / batch_rate
        due[g].append(t)
        stamps[g].extend(t - gap + gap * (j + 1) / batch_events
                         for j in range(batch_events))
    return due, stamps


# ----------------------------------------------------------------------
# Storm: a class-break over a regional fleet
# ----------------------------------------------------------------------

@dataclass
class StormScene:
    """Per-region delivery streams of ``(arrival_t, event)`` pairs in
    arrival order, plus the ground truth."""

    regions: List[str]
    streams: Dict[str, List[Tuple[float, SecurityEvent]]]
    planted: Set[str]
    warmup: Dict[str, List[SecurityEvent]]
    duplicates: int
    delayed: int


#: Event time at which a storm scene starts.
STORM_T0 = 1_000_000.0
#: Background events per region offered before the scene, 30 s before
#: it starts.  Set-up pumps them, so that its time is mostly the
#: centres' own work rather than the few fsyncs of opening their stores,
#: whose latency drifts with the host's disk.
STORM_WARMUP_EVENTS = 1_000
#: Storm delivery faults, each an assumption rather than field data (see
#: README.md): the share of deliveries redelivered with the same event
#: id shortly after, the share arriving up to REORDER_MAX_S late (out of
#: order, inside the correlator's 2 s lateness bound) and the share
#: arriving LATE_S late (beyond it).
DUPLICATE_P = 0.03
REORDER_P = 0.05
REORDER_MAX_S = 1.5
LATE_P = 0.01
LATE_S = (3.0, 5.0)


def storm_scene(seed: int, regions: Sequence[str], vehicles: int,
                events: int, span_s: float, campaigns: int,
                campaign_share: float) -> StormScene:
    """``events`` deliveries over ``span_s`` seconds of event time.

    A share ``campaign_share`` of the deliveries carry one of
    ``campaigns`` class-break signatures from a random vehicle of the
    whole fleet; the rest is pairwise background.  Redeliveries and late
    or out-of-order arrivals follow the module's fault shares."""
    rng = random.Random(seed)
    seqs = SeqCounter()
    per_region = vehicles // len(regions)
    fleet = {r: [f"{r}-v{i:06d}" for i in range(per_region)] for r in regions}
    sigs = [f"ids.classbreak.{c}" for c in range(campaigns)]
    sources = pick_sources(rng, events)
    arrivals: Dict[str, List[Tuple[float, int, SecurityEvent]]] = {r: [] for r in regions}
    duplicates = delayed = 0
    for i in range(events):
        t = STORM_T0 + span_s * i / events
        region = regions[rng.randrange(len(regions))]
        pool = fleet[region]
        if rng.random() < campaign_share:
            vehicle = pool[rng.randrange(per_region)]
            event = make_event(vehicle, EventSource.IDS, sigs[rng.randrange(campaigns)],
                               t, seqs(vehicle))
        else:
            event = background_event(rng, seqs, pool, rng.randrange(per_region),
                                     region, sources[i], t)
        r = rng.random()
        if r < LATE_P:
            arrival = t + rng.uniform(*LATE_S)
            delayed += 1
        elif r < LATE_P + REORDER_P:
            arrival = t + rng.uniform(0.0, REORDER_MAX_S)
            delayed += 1
        else:
            arrival = t
        arrivals[region].append((arrival, i, event))
        if rng.random() < DUPLICATE_P:
            arrivals[region].append((arrival + rng.uniform(0.0, 1.0), i, event))
            duplicates += 1
    streams = {r: [(a, e) for a, _, e in sorted(arrivals[r], key=lambda x: (x[0], x[1]))]
               for r in regions}
    warmup = {r: [background_event(rng, seqs, fleet[r], rng.randrange(per_region),
                                   r, src, STORM_T0 - 30.0)
                  for src in pick_sources(rng, STORM_WARMUP_EVENTS)]
              for r in regions}
    return StormScene(list(regions), streams, set(sigs), warmup, duplicates, delayed)
