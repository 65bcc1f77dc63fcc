"""E18 -- Federated VSOC: cross-region detection latency vs shipping lag.

The paper's §7 centralized-policy loop, deployed honestly, is not one
process: an OEM VSOC runs per continent, and the fleet-wide view is
stitched from regional backends over a WAN.  E18 runs M regional SOCs
(each its own sharded ingest, correlators, and durable
:mod:`repro.soc.store` log) whose log-segment streams ship to a
:class:`~repro.soc.federation.FederationHub`, and measures what the
transport costs: **cross-region campaigns** are planted so that every
region sees *fewer* than ``k`` victims -- no region can fire alone; only
the hub's cross-region merge can -- and the sweep varies the shipping
lag to chart detection latency against it.  A partition/heal cell takes
one region offline mid-campaign: the hub's watermark gate (the price of
byte-deterministic verdicts) stalls the *global* merge until the
partition heals, and the cell records the catch-up.
``availability_cell`` prices the alternative under the *same* outage:
an optimistic hub (one given a ``staleness_budget_s``) pages
provisionally at the no-partition twin's latency and then reconciles --
the cell asserts the reconciled snapshot is byte-identical to the
strict gate's and that the amendment counters tie out, and reports the
latency ratios the smoke gate enforces.

All scenes are deterministic for a fixed seed (per-region
:class:`~repro.sim.RngStreams` derived by region name; channel delivery
schedules from their own seeded RNG).  ``hub_apply_microbench`` times
the hub's watermark-gated replay path -- the ``apply_eps`` figure gated
by ``benchmarks/e18_smoke.py`` against ``BENCH_E18.json``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.sweep import SweepResult
from repro.core.safety import Asil
from repro.sim import RngStreams, Simulator
from repro.sim.rng import derive_seed
from repro.soc import (
    AttackCampaign,
    DurableStore,
    EventSource,
    FederationHub,
    FleetModel,
    FleetWorkloadGenerator,
    SecurityOperationsCenter,
    SegmentShipper,
    ShippingChannel,
    make_event,
)
from repro.soc.store import LogRecord

REGION_NAMES: Tuple[str, ...] = ("region-0", "region-1", "region-2")
#: Disjoint per-region vehicle-id spaces (``v{id_base + i:06d}``).
REGION_ID_STRIDE = 1_000_000

DURATION_S = 28.0
N_PER_REGION = 2_000
NUM_SHARDS = 2
K = 3
SHIP_TICK_S = 0.25
#: Shipping lags swept by :func:`run` (seconds, one-way).
LAG_GRID: Tuple[float, ...] = (0.0, 1.0, 2.0, 5.0)

_CAMPAIGN_KINDS = (
    (EventSource.IDS, {"can_id": 0x0C9, "detector": "spec"}),
    (EventSource.DIAG, {"nrc": 0x35}),
    (EventSource.V2X, {"reason": "teleport"}),
)


def cross_region_campaigns(
    rng: RngStreams,
    region_names: Sequence[str],
    n_per_region: int,
    per_region_targets: int = 2,
    n_campaigns: int = 3,
    start_s: float = 4.0,
    spread_duration_s: float = 8.0,
) -> Dict[str, List[AttackCampaign]]:
    """Plant class-breaks that *straddle* regions: each campaign keeps
    the same signature everywhere but targets only ``per_region_targets``
    vehicles per region -- below ``k``, so no regional correlator can
    fire and the hub's cross-region stitch is the only detector.
    Returns the per-region campaign lists (same signatures, disjoint
    region-local target sets)."""
    picker = rng.get("soc.federation.campaigns")
    out: Dict[str, List[AttackCampaign]] = {r: [] for r in region_names}
    for i in range(n_campaigns):
        source, extra = _CAMPAIGN_KINDS[i % len(_CAMPAIGN_KINDS)]
        for region_index, region in enumerate(region_names):
            base = region_index * REGION_ID_STRIDE
            indices = picker.sample(range(n_per_region), per_region_targets)
            out[region].append(AttackCampaign(
                name=f"xr-campaign-{i}",
                source=source,
                start_s=start_s + 2.0 * i,
                targets=tuple(FleetModel.vehicle_id(base + j)
                              for j in indices),
                rate_per_s=max(0.5, per_region_targets / spread_duration_s),
                **extra,
            ))
    return out


@dataclass
class RegionRuntime:
    """One region's full stack plus its shipping leg."""

    name: str
    fleet: FleetModel
    center: SecurityOperationsCenter
    generator: FleetWorkloadGenerator
    store: DurableStore
    channel: ShippingChannel
    shipper: SegmentShipper


@dataclass
class FederatedScene:
    """M regions + hub on one simulation kernel.

    The ship driver runs each :data:`SHIP_TICK_S` at ``priority=1`` --
    strictly after every region's same-tick SOC pump, so a tick's log
    records (batches *and* the pump marker) are on disk before the
    shipper tails them.
    """

    sim: Simulator
    hub: FederationHub
    regions: Dict[str, RegionRuntime]
    ship_tick_s: float = SHIP_TICK_S
    root: Optional[Path] = None
    _owns_root: bool = False
    campaign_signatures: Set[str] = field(default_factory=set)

    def start(self) -> None:
        for runtime in self.regions.values():
            runtime.center.start()
            runtime.generator.start()
        self.sim.schedule(self.ship_tick_s, self._ship_tick, priority=1)

    def _ship_tick(self) -> None:
        now = self.sim.now
        for runtime in self.regions.values():
            runtime.shipper.pump(now)
        for runtime in self.regions.values():
            for blob in runtime.channel.deliver(now):
                self.hub.receive(blob)
        self.hub.advance(now)
        self.sim.schedule(self.ship_tick_s, self._ship_tick, priority=1)

    def run(self, duration_s: float) -> None:
        self.sim.run_until(duration_s)
        self.finish()

    def finish(self) -> None:
        """End-of-run flush: drain every region (audited pumps), ship
        the remainder, deliver everything still on the wire, and lift
        the hub's frontier gate (all logs are complete)."""
        for runtime in self.regions.values():
            runtime.center.final_drain()
        now = self.sim.now
        for runtime in self.regions.values():
            runtime.shipper.pump(now)
        for runtime in self.regions.values():
            for blob in runtime.channel.deliver(float("inf")):
                self.hub.receive(blob)
        self.hub.finalize(now)

    def detection_latencies(self) -> List[float]:
        """Seconds from each planted campaign's ``detect_time`` to the
        sim time its verdict was applied at the hub."""
        return [applied_at - detection.detect_time
                for applied_at, detection in self.hub.detection_log
                if detection.signature in self.campaign_signatures]

    def close(self) -> None:
        for runtime in self.regions.values():
            runtime.store.close()
        if self._owns_root and self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)


def build_federated_scene(
    seed: int = 0,
    region_names: Sequence[str] = REGION_NAMES,
    n_per_region: int = N_PER_REGION,
    num_shards: int = NUM_SHARDS,
    lag_s: float = 0.0,
    jitter_s: float = 0.0,
    duplicate_p: float = 0.0,
    outages: Optional[Dict[str, Sequence[Tuple[float, float]]]] = None,
    root=None,
    staleness_budget_s: Optional[float] = None,
) -> FederatedScene:
    """Wire M regional SOCs, their shipping legs, and the hub.

    Every region gets its own derived RNG universe, a disjoint
    vehicle-id space (``id_base``), a :class:`DurableStore` under
    ``root``, and a seeded :class:`ShippingChannel` with the given lag /
    jitter / duplication; ``outages`` maps region name to link-down
    windows; ``staleness_budget_s`` makes the hub optimistic (``None``
    keeps the strict gate).  Scene-level determinism: same seed, same
    verdicts -- regardless of the channel parameters (the differential
    tests hold the hub to that).
    """
    owns_root = root is None
    base = Path(root) if root is not None else Path(tempfile.mkdtemp())
    sim = Simulator()
    rng = RngStreams(seed)
    per_region_campaigns = cross_region_campaigns(
        rng, region_names, n_per_region)

    profile: Optional[Dict[str, object]] = None
    regions: Dict[str, RegionRuntime] = {}
    signatures: Set[str] = set()
    for index, name in enumerate(region_names):
        region_rng = RngStreams(derive_seed(seed, f"e18.{name}"))
        campaigns = per_region_campaigns[name]
        signatures |= {c.signature for c in campaigns}
        fleet = FleetModel(n_per_region, campaigns,
                           id_base=index * REGION_ID_STRIDE)
        store = DurableStore(base / name)
        center = SecurityOperationsCenter(
            sim, fleet, k=K, respond=False, num_shards=num_shards,
            store=store,
        )
        generator = FleetWorkloadGenerator(sim, region_rng, fleet,
                                           center.pipeline)
        channel = ShippingChannel(
            random.Random(derive_seed(seed, f"e18.chan.{name}")),
            lag_s=lag_s, jitter_s=jitter_s, duplicate_p=duplicate_p,
            outages=(outages or {}).get(name, ()),
        )
        shipper = SegmentShipper(name, store.log, channel)
        regions[name] = RegionRuntime(
            name=name, fleet=fleet, center=center, generator=generator,
            store=store, channel=channel, shipper=shipper)
        if profile is None:
            profile = center.federation_profile()

    hub = FederationHub.from_profile(list(region_names), profile,
                                     staleness_budget_s=staleness_budget_s)
    return FederatedScene(sim=sim, hub=hub, regions=regions,
                          root=base, _owns_root=owns_root,
                          campaign_signatures=signatures)


# ----------------------------------------------------------------------
# The sweep: detection latency vs shipping lag
# ----------------------------------------------------------------------

def _lag_cell(seed: int, lag_s: float, jitter_s: float, duplicate_p: float,
              duration_s: float, n_per_region: int) -> Dict[str, float]:
    scene = build_federated_scene(
        seed=seed, lag_s=lag_s, jitter_s=jitter_s, duplicate_p=duplicate_p,
        n_per_region=n_per_region)
    try:
        scene.start()
        scene.run(duration_s)
        latencies = scene.detection_latencies()
        truth = scene.campaign_signatures
        flagged = scene.hub.flagged_signatures()
        shipped = sum(r.shipper.records_shipped
                      for r in scene.regions.values())
        shipments = sum(r.shipper.shipments_sent
                        for r in scene.regions.values())
        hub_metrics = scene.hub.metrics()
        return {
            "lag_s": lag_s,
            "jitter_s": jitter_s,
            "duplicate_p": duplicate_p,
            "campaigns_detected": float(len(flagged & truth)),
            "campaigns_planted": float(len(truth)),
            "mean_latency_s": (sum(latencies) / len(latencies)
                               if latencies else float("nan")),
            "max_latency_s": max(latencies) if latencies else float("nan"),
            "records_shipped": float(shipped),
            "shipments": float(shipments),
            "records_applied": hub_metrics["records_applied"],
            "receiver_duplicates": hub_metrics["receiver_duplicates"],
            "stalled_rounds": hub_metrics["stalled_rounds"],
            "unapplied": float(scene.hub.unapplied()),
        }
    finally:
        scene.close()


def run(
    seed: int = 0,
    lags: Sequence[float] = LAG_GRID,
    duration_s: float = DURATION_S,
    n_per_region: int = N_PER_REGION,
    jitter_s: float = 0.1,
    duplicate_p: float = 0.02,
) -> SweepResult:
    """Shipping-lag sweep over the federated topology.

    Every cell plants the same cross-region campaigns (sub-``k`` per
    region) and reports how long the fleet-wide verdict took to surface
    at the hub.  Jitter and duplication are on by default -- the hub's
    verdicts must not care, only the latency may.
    """
    result = SweepResult(
        "E18: federated VSOC -- cross-region detection latency vs "
        "shipping lag",
        ["lag_s", "detected", "planted", "mean_latency_s", "max_latency_s",
         "records_shipped", "shipments", "duplicates", "stalled_rounds"],
    )
    for lag_s in lags:
        cell = _lag_cell(seed, lag_s, jitter_s, duplicate_p, duration_s,
                         n_per_region)
        result.add(
            lag_s=lag_s,
            detected=cell["campaigns_detected"],
            planted=cell["campaigns_planted"],
            mean_latency_s=cell["mean_latency_s"],
            max_latency_s=cell["max_latency_s"],
            records_shipped=cell["records_shipped"],
            shipments=cell["shipments"],
            duplicates=cell["receiver_duplicates"],
            stalled_rounds=cell["stalled_rounds"],
        )
    return result


def summary(seed: int = 0, lags: Sequence[float] = LAG_GRID,
            duration_s: float = DURATION_S,
            n_per_region: int = N_PER_REGION) -> Dict[str, List[Dict[str, float]]]:
    """Plain-dict form of :func:`run` (the determinism tests pin this)."""
    result = run(seed=seed, lags=lags, duration_s=duration_s,
                 n_per_region=n_per_region)
    return {"rows": [dict(row) for row in result.rows]}


# ----------------------------------------------------------------------
# Partition / heal cell
# ----------------------------------------------------------------------

def partition_heal_cell(
    seed: int = 0,
    outage: Tuple[float, float] = (8.0, 16.0),
    partitioned_region: str = REGION_NAMES[-1],
    lag_s: float = 0.5,
    duration_s: float = DURATION_S,
    n_per_region: int = N_PER_REGION,
) -> Dict[str, float]:
    """One region's link down for ``outage`` -- squarely across the
    campaign window -- then healing.

    The watermark gate means the partition stalls the *global* merge
    (the hub cannot order other regions' records past the silent
    region's frontier), so detection latency for every campaign is
    dominated by the heal time: strict verdict determinism traded
    against availability, measured.  The cell also differentially
    checks that the healed run's verdict set equals the no-outage
    twin's -- an outage may only *delay* campaigns, never lose them.
    """
    twin = _lag_cell(seed, lag_s, 0.0, 0.0, duration_s, n_per_region)

    scene = build_federated_scene(
        seed=seed, lag_s=lag_s,
        outages={partitioned_region: (outage,)},
        n_per_region=n_per_region)
    try:
        scene.start()
        scene.run(duration_s)
        latencies = scene.detection_latencies()
        flagged = scene.hub.flagged_signatures()
        truth = scene.campaign_signatures
        if scene.hub.unapplied():
            raise AssertionError(
                "partition cell left unapplied records after heal")
        if (flagged & truth) != truth:
            raise AssertionError(
                "partition lost campaign verdicts the no-outage twin found")
        refused = scene.regions[partitioned_region].shipper.send_refused
        return {
            "outage_start_s": outage[0],
            "outage_end_s": outage[1],
            "lag_s": lag_s,
            "campaigns_detected": float(len(flagged & truth)),
            "campaigns_planted": float(len(truth)),
            "mean_latency_s": (sum(latencies) / len(latencies)
                               if latencies else float("nan")),
            "max_latency_s": max(latencies) if latencies else float("nan"),
            "twin_mean_latency_s": twin["mean_latency_s"],
            "sends_refused": float(refused),
            "stalled_rounds": scene.hub.metrics()["stalled_rounds"],
            "verdicts_match_twin": 1.0,
        }
    finally:
        scene.close()


# ----------------------------------------------------------------------
# Determinism vs availability: strict and optimistic under one outage
# ----------------------------------------------------------------------

def _outage_run(
    seed: int,
    staleness_budget_s: Optional[float],
    outage: Optional[Tuple[float, float]],
    partitioned_region: str,
    lag_s: float,
    duration_s: float,
    n_per_region: int,
) -> Dict[str, object]:
    """One federated run (optionally partitioned), strict with a
    ``None`` budget and optimistic otherwise; returns latency stats, the
    canonical analytic snapshot, and the hub's amendment counters."""
    scene = build_federated_scene(
        seed=seed, lag_s=lag_s,
        outages=({partitioned_region: (outage,)} if outage else None),
        n_per_region=n_per_region, staleness_budget_s=staleness_budget_s)
    try:
        scene.start()
        scene.run(duration_s)
        latencies = scene.detection_latencies()
        metrics = scene.hub.metrics()
        return {
            "mean_latency_s": (sum(latencies) / len(latencies)
                               if latencies else float("nan")),
            "max_latency_s": max(latencies) if latencies else float("nan"),
            "detected": float(len(scene.hub.flagged_signatures()
                                  & scene.campaign_signatures)),
            "planted": float(len(scene.campaign_signatures)),
            "snapshot": json.dumps(scene.hub.analytics_snapshot(),
                                   sort_keys=True),
            "metrics": metrics,
            "unapplied": float(scene.hub.unapplied()),
        }
    finally:
        scene.close()


def availability_cell(
    seed: int = 0,
    outage: Tuple[float, float] = (8.0, 16.0),
    partitioned_region: str = REGION_NAMES[-1],
    lag_s: float = 0.5,
    staleness_budget_s: float = 1.0,
    duration_s: float = DURATION_S,
    n_per_region: int = N_PER_REGION,
) -> Dict[str, float]:
    """The determinism-vs-availability cell: one outage schedule, three
    runs.

    1. **Twin** -- no partition, strict mode: the latency floor.
    2. **Strict under partition** -- the watermark gate stalls the
       global merge until heal; latency is dominated by the outage.
    3. **Optimistic under partition** -- after ``staleness_budget_s`` of
       stall the hub rides ahead provisionally and reconciles at heal.

    The cell *asserts* the mode contract before reporting numbers: the
    optimistic run's reconciled snapshot must be byte-identical to the
    strict run's (same shipments, so same canonical order), no campaign
    may be lost in any run, and every provisional verdict must be
    classified by exactly one amendment.  ``latency_ratio`` --
    optimistic-under-partition mean latency over the twin's -- is the
    CI-gated availability figure (strict's same ratio is reported
    alongside as the price of the gate).
    """
    twin = _outage_run(seed, None, None, partitioned_region, lag_s,
                       duration_s, n_per_region)
    strict = _outage_run(seed, None, outage, partitioned_region, lag_s,
                         duration_s, n_per_region)
    optimistic = _outage_run(seed, staleness_budget_s, outage,
                             partitioned_region, lag_s, duration_s,
                             n_per_region)
    if optimistic["snapshot"] != strict["snapshot"]:
        raise AssertionError(
            "optimistic reconciliation diverged from the strict gate")
    for label, cell in (("twin", twin), ("strict", strict),
                        ("optimistic", optimistic)):
        if cell["unapplied"]:
            raise AssertionError(f"{label} run left unapplied records")
        if cell["detected"] != cell["planted"]:
            raise AssertionError(f"{label} run lost campaign verdicts")
    om = optimistic["metrics"]
    classified = (om["amendments_confirmed"] + om["amendments_amended"]
                  + om["amendments_retracted"])
    if classified != om["provisional_verdicts"]:
        raise AssertionError(
            "amendment counters do not tie out against provisional "
            "verdicts")
    if om["episodes"] < 1.0:
        raise AssertionError(
            "the outage never opened an optimistic episode -- the cell "
            "is not measuring what it claims")
    return {
        "outage_start_s": outage[0],
        "outage_end_s": outage[1],
        "lag_s": lag_s,
        "staleness_budget_s": staleness_budget_s,
        "twin_mean_latency_s": twin["mean_latency_s"],
        "strict_mean_latency_s": strict["mean_latency_s"],
        "optimistic_mean_latency_s": optimistic["mean_latency_s"],
        "latency_ratio": (optimistic["mean_latency_s"]
                          / twin["mean_latency_s"]),
        "strict_latency_ratio": (strict["mean_latency_s"]
                                 / twin["mean_latency_s"]),
        "episodes": om["episodes"],
        "reconciliations": om["reconciliations"],
        "provisional_verdicts": om["provisional_verdicts"],
        "amendments_confirmed": om["amendments_confirmed"],
        "amendments_amended": om["amendments_amended"],
        "amendments_retracted": om["amendments_retracted"],
        "late_verdicts": om["late_verdicts"],
        "snapshots_identical": 1.0,
    }


# ----------------------------------------------------------------------
# Hub apply microbench (the CI-gated throughput figure)
# ----------------------------------------------------------------------

def _synthetic_region_records(
    region_index: int, n_batches: int, batch_size: int,
    num_shards: int, n_signatures: int, mark_every: int, tick_s: float,
) -> List[LogRecord]:
    """One region's worth of log records: ``batch_size``-event batches
    round-robined over shards, a pump marker every ``mark_every``
    batches, dispatch times on a shared tick grid so regions tie (the
    hub's common case)."""
    records: List[LogRecord] = []
    seq = 0
    event_no = 0
    for b in range(n_batches):
        dispatch_t = (b // num_shards + 1) * tick_s
        events = []
        for _ in range(batch_size):
            event_no += 1
            vid = f"v{region_index * REGION_ID_STRIDE + event_no % 9973:06d}"
            events.append(make_event(
                vid, EventSource.IDS,
                f"bench.sig:{event_no % n_signatures:03d}",
                dispatch_t - tick_s * 0.5, event_no, severity=Asil.C))
        seq += 1
        records.append(LogRecord(seq=seq, kind="batch",
                                 dispatch_t=dispatch_t,
                                 shard=b % num_shards,
                                 events=tuple(events)))
        if (b + 1) % mark_every == 0:
            seq += 1
            records.append(LogRecord(seq=seq, kind="mark",
                                     dispatch_t=dispatch_t,
                                     pump_no=(b + 1) // mark_every))
    return records


def hub_apply_microbench(
    n_events: int = 24_000,
    n_regions: int = 3,
    num_shards: int = 2,
    batch_size: int = 64,
    n_signatures: int = 64,
    mark_every: int = 8,
) -> Dict[str, float]:
    """Time the hub's watermark-gated replay on a synthetic multi-region
    stream (transport excluded -- the store bench already prices the
    codec).  ``k`` is unreachable so every record pays full window
    maintenance and every marker pays a merge over all replica engines;
    ``apply_eps`` is the CI-gated figure in ``BENCH_E18.json``.
    """
    per_region_batches = n_events // (n_regions * batch_size)
    hub = FederationHub(
        [f"bench-r{i}" for i in range(n_regions)], num_shards,
        window_s=4.0, k=1_000_000, dedup_window_s=0.0,
        max_lateness_s=1e12)
    total_events = 0
    for index, region in enumerate(hub.regions):
        records = _synthetic_region_records(
            index, per_region_batches, batch_size, num_shards,
            n_signatures, mark_every, tick_s=0.25)
        receiver = hub.receivers[region]
        for record in records:
            receiver.buffer[record.seq] = record
            if record.kind == "batch":
                total_events += len(record.events)

    t0 = time.perf_counter()
    applied = hub.finalize(0.0)
    wall_s = time.perf_counter() - t0
    assert hub.unapplied() == 0
    return {
        "events": float(total_events),
        "records": float(applied),
        "regions": float(n_regions),
        "num_shards": float(num_shards),
        "apply_eps": total_events / wall_s if wall_s > 0 else 0.0,
        "apply_rps": applied / wall_s if wall_s > 0 else 0.0,
        "pumps_applied": float(hub.pumps_applied),
    }


def write_bench_json(
    path,
    lag_cells: List[Dict[str, float]],
    partition: Dict[str, float],
    hub_apply: Dict[str, float],
    availability: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """Write the machine-readable E18 perf record (``BENCH_E18.json``);
    ``cpu_count`` is recorded so a throughput reads with its host."""
    payload = {
        "schema": "bench-e18/v2",
        "duration_s": DURATION_S,
        "cpu_count": os.cpu_count() or 1,
        "lag_cells": lag_cells,
        "partition": partition,
        "hub_apply": hub_apply,
    }
    if availability is not None:
        payload["availability"] = availability
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
