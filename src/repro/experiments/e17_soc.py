"""E17 -- Fleet-scale VSOC: ingest, correlate, contain (§4.2 + §7).

The paper's §7 centralized-policy direction implies a backend consuming
fleet telemetry; §4.2's class-break argument says that backend is where
an attack on one vehicle becomes *observable* as an attack on the fleet.
E17 runs the :mod:`repro.soc` stack over fleets of 10^2..10^7 vehicles
with seeded cross-fleet attack campaigns planted in benign noise, and
for every cell also runs the identical scenario with response disabled
(the no-SOC baseline).  Cells at/above :data:`SHARDED_FLEET` run the
scale-out configuration -- a :class:`~repro.soc.shard.ShardedIngestPipeline`
worker pool, **shard-local correlators** stitched by the
:class:`~repro.soc.correlate.GlobalCampaignMerger`, batched sink
delivery end-to-end, and the numpy-vectorized workload generator -- and
*every* cell runs with the :class:`~repro.soc.shard.ConservationAudit`
enabled, so a single unaccounted event in any pump of any cell fails
the experiment loudly.  Reported per cell:

- ingest health: offered vs dispatched events, shed rate (explicit, not
  silent), peak queue depth, mean dispatch latency;
- correlation quality: precision/recall of flagged signatures against
  the planted campaigns at k=3;
- loop closure: mean detection-to-containment latency, policy pushes,
  Uptane sample installs, and blast radius (compromised vehicles) with
  response on vs off.

Deterministic for a fixed seed: all stochastic draws go through named
:class:`~repro.sim.RngStreams` (wall-clock timings, when requested, ride
in a side dict so the published tables stay bit-reproducible).

:func:`correlate_microbench` is the perf-trajectory probe behind
``BENCH_E17.json``: it times the batched correlate fast path against the
same-run per-event baseline (:class:`ReferenceCorrelationEngine`, the
pre-optimization implementation kept as executable spec).
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.sweep import SweepResult
from repro.sim import RngStreams, Simulator
from repro.soc import (
    CorrelationEngine,
    DurableStore,
    EventLog,
    EventSource,
    FleetModel,
    FleetWorkloadGenerator,
    ReferenceCorrelationEngine,
    SecurityOperationsCenter,
    k_for_fleet_size,
    make_event,
    recover_soc_state,
    seeded_campaigns,
)
from repro.core.safety import Asil

#: (fleet size, attack prevalence) grid; prevalence shrinks with scale so
#: planted campaigns stay a minority class against the benign noise.
DEFAULT_GRID: Tuple[Tuple[int, float], ...] = (
    (100, 0.05),
    (1_000, 0.02),
    (10_000, 0.01),
    (100_000, 0.002),
    (1_000_000, 0.0005),
    (10_000_000, 0.0001),
)

DURATION_S = 40.0
CAPACITY_EPS = 250.0
K = 3

#: Fleet size at/above which a cell runs the scale-out configuration:
#: a sharded ingest pipeline (NUM_SHARDS workers sharing a budget of
#: CAPACITY_EPS per worker), shard-local correlators behind the global
#: campaign merger, batched sink delivery, and the numpy-vectorized
#: workload generator.  Cells below it keep the single-pipeline,
#: single-correlator configuration (batched delivery everywhere).
SHARDED_FLEET = 1_000_000
NUM_SHARDS = 8
#: The 10^7 cell widens the worker pool again: twice the shards, twice
#: the shared backend budget.
MEGA_FLEET = 10_000_000
MEGA_SHARDS = 16
#: The 10^8 cell (opt-in: :func:`giga_cell`, the EXPERIMENTS.md XL row --
#: not in DEFAULT_GRID) doubles the pool once more.
GIGA_FLEET = 100_000_000
GIGA_SHARDS = 32


def _cell_config(n_vehicles: int, capacity_eps: float) -> Dict[str, object]:
    """Scale knobs for one cell: sharded + vectorized at/above
    :data:`SHARDED_FLEET`, the seed-identical scalar setup below it.

    ``k`` scales with the fleet (:func:`~repro.soc.correlate.\
k_for_fleet_size`): a fixed k=3 tuned at 10^6 vehicles is crossed by
    benign chance co-occurrence at 10^8 (the XL cell measured precision
    0.6 before this), so the threshold gains one distinct-vehicle demand
    per decade -- k=4 at 10^7, k=5 at 10^8 -- restoring precision >= 0.9
    at recall 1.0 (pinned by the XL regression test)."""
    k = k_for_fleet_size(n_vehicles, base_k=K, base_fleet=SHARDED_FLEET)
    if n_vehicles >= GIGA_FLEET:
        return {"num_shards": GIGA_SHARDS,
                "capacity_eps": capacity_eps * GIGA_SHARDS,
                "vectorized": True, "k": k}
    if n_vehicles >= MEGA_FLEET:
        return {"num_shards": MEGA_SHARDS,
                "capacity_eps": capacity_eps * MEGA_SHARDS,
                "vectorized": True, "k": k}
    if n_vehicles >= SHARDED_FLEET:
        return {"num_shards": NUM_SHARDS,
                "capacity_eps": capacity_eps * NUM_SHARDS,
                "vectorized": True, "k": k}
    return {"num_shards": 1, "capacity_eps": capacity_eps,
            "vectorized": False, "k": k}


def _scene(
    n_vehicles: int,
    prevalence: float,
    seed: int,
    respond: bool,
    duration_s: float = DURATION_S,
    capacity_eps: float = CAPACITY_EPS,
    num_shards: int = 1,
    vectorized: bool = False,
    k: int = K,
) -> Dict[str, float]:
    """One fleet, one SOC configuration; returns the flat metrics dict."""
    sim = Simulator()
    rng = RngStreams(seed)
    campaigns = seeded_campaigns(rng, n_vehicles, prevalence)
    fleet = FleetModel(n_vehicles, campaigns)
    soc = SecurityOperationsCenter(
        sim, fleet, capacity_eps=capacity_eps, k=k, respond=respond,
        num_shards=num_shards,
    )
    generator = FleetWorkloadGenerator(sim, rng, fleet, soc.pipeline,
                                       vectorized=vectorized)
    soc.start()
    generator.start()
    sim.run_until(duration_s)
    # Final drain so in-flight events are accounted before scoring --
    # audited (and campaign-merged) like every scheduled pump.
    soc.final_drain()

    metrics = soc.metrics()
    metrics["suppressed_at_source"] = float(generator.suppressed_at_source)
    metrics["emitted"] = float(generator.emitted)
    metrics["offered_eps"] = metrics["offered"] / duration_s
    metrics["dispatched_eps"] = metrics["dispatched"] / duration_s
    return metrics


def run(
    seed: int = 0,
    grid: Optional[Sequence[Tuple[int, float]]] = None,
    duration_s: float = DURATION_S,
    capacity_eps: float = CAPACITY_EPS,
    timings: Optional[Dict[int, Dict[str, float]]] = None,
) -> SweepResult:
    """Fleet-size x prevalence sweep, SOC vs no-SOC baseline per cell.

    ``timings``, when given, is filled per fleet size with wall-clock
    figures (``wall_s`` for the SOC scene incl. its baseline twin, and
    the real-time ``ingest_correlate_eps`` the SOC scene sustained) --
    kept out of the SweepResult so the published tables and the
    determinism tests stay independent of host speed.
    """
    result = SweepResult(
        "E17: fleet VSOC -- ingest, correlate, contain vs no-SOC baseline",
        ["fleet", "prevalence", "offered_eps", "shed_rate", "src_suppressed",
         "queue_peak", "latency_ms", "precision", "recall", "t_contain_s",
         "policy_pushes", "ota_installs", "compromised_soc",
         "compromised_nosoc", "averted"],
    )
    for n_vehicles, prevalence in (grid or DEFAULT_GRID):
        config = _cell_config(n_vehicles, capacity_eps)
        t0 = time.perf_counter()
        with_soc = _scene(n_vehicles, prevalence, seed, respond=True,
                          duration_s=duration_s, **config)
        t_soc = time.perf_counter() - t0
        baseline = _scene(n_vehicles, prevalence, seed, respond=False,
                          duration_s=duration_s, **config)
        wall_s = time.perf_counter() - t0
        if timings is not None:
            processed = with_soc["dispatched"] + with_soc["emitted"]
            timings[n_vehicles] = {
                "wall_s": wall_s,
                "soc_scene_wall_s": t_soc,
                "ingest_correlate_eps": processed / t_soc if t_soc > 0 else 0.0,
            }
        result.add(
            fleet=n_vehicles,
            prevalence=prevalence,
            offered_eps=with_soc["offered_eps"],
            shed_rate=with_soc["shed_rate"],
            src_suppressed=with_soc["suppressed_at_source"],
            queue_peak=with_soc["queue_depth_max"],
            latency_ms=with_soc["mean_dispatch_latency_s"] * 1e3,
            precision=with_soc["precision"],
            recall=with_soc["recall"],
            t_contain_s=with_soc["mean_time_to_containment_s"],
            policy_pushes=with_soc["policy_pushes"],
            ota_installs=with_soc["ota_installs"],
            compromised_soc=with_soc["fleet_compromised"],
            compromised_nosoc=baseline["fleet_compromised"],
            averted=with_soc["blast_radius_averted"],
        )
    return result


def summary(seed: int = 0,
            grid: Optional[Sequence[Tuple[int, float]]] = None,
            duration_s: float = DURATION_S) -> Dict[str, List[Dict[str, float]]]:
    """Plain-dict form of :func:`run` (the determinism tests pin this)."""
    result = run(seed=seed, grid=grid, duration_s=duration_s)
    return {"rows": [dict(row) for row in result.rows]}


def giga_cell(
    seed: int = 0,
    n_vehicles: int = GIGA_FLEET,
    prevalence: float = 0.00002,
    duration_s: float = 10.0,
    capacity_eps: float = CAPACITY_EPS,
) -> Dict[str, float]:
    """The 10^8-vehicle XL cell: 32 shards, vectorized generator,
    batched correlate delivery.  Opt-in (too heavy for the default grid
    / the CI sweep); the EXPERIMENTS.md E17 XL row records one measured
    run.  Returns the scene metrics plus wall-clock throughput
    (``ingest_correlate_eps``: dispatched events per second of real
    time)."""
    config = _cell_config(n_vehicles, capacity_eps)
    t0 = time.perf_counter()
    metrics = _scene(n_vehicles, prevalence, seed, respond=True,
                     duration_s=duration_s, **config)
    wall_s = time.perf_counter() - t0
    metrics["fleet"] = float(n_vehicles)
    metrics["num_shards"] = float(config["num_shards"])
    metrics["k"] = float(config["k"])
    metrics["wall_s"] = wall_s
    metrics["ingest_correlate_eps"] = metrics["dispatched"] / wall_s
    return metrics


# ----------------------------------------------------------------------
# Perf trajectory: correlate-path throughput (BENCH_E17.json)
# ----------------------------------------------------------------------

def _correlate_stream(n_events: int, n_signatures: int, window_s: float,
                      per_sig_window: int) -> List:
    """Synthetic correlate workload: ``n_signatures`` concurrently active
    signatures, each holding ~``per_sig_window`` live entries -- the
    regime where the reference engine's per-event window rescan hurts."""
    dt = window_s / (n_signatures * per_sig_window)
    return [
        make_event(f"v{i:07d}", EventSource.IDS,
                   f"bench.sig:{i % n_signatures:03d}", i * dt, i,
                   severity=Asil.C)
        for i in range(n_events)
    ]


def correlate_microbench(
    n_events: int = 30_000,
    n_signatures: int = 64,
    window_s: float = 4.0,
    per_sig_window: int = 256,
    batch_size: int = 64,
    reps: int = 1,
) -> Dict[str, float]:
    """Time the three correlate paths on one identical stream:

    - ``reference_eps``: the pre-optimization per-event engine
      (:class:`ReferenceCorrelationEngine`, O(window) per event) -- the
      same-run baseline the speedups are measured against;
    - ``per_event_eps``: the incremental engine fed one event per call;
    - ``batched_eps``: the incremental engine fed ``batch_size``-event
      batches via :meth:`~CorrelationEngine.observe_batch` (the live
      dispatch path).

    ``k`` is set unreachably high so no campaign fires and every event
    pays the full window-maintenance cost; lateness is unbounded and
    dedup disabled so nothing short-circuits.

    ``reps`` re-times every arm except the slow reference that many
    times (fresh engine each rep, best-of-N kept): on a shared host a
    single run measures scheduler luck as much as the code, and the CI
    speedup gates want the ratio of capabilities, not of noise draws.

    Beyond timing, the run asserts all three engines finished with equal
    counters/watermark and that the batched engine's ``snapshot()`` is
    byte-identical to the per-event engine's -- every bench run is also
    a differential check.
    """
    events = _correlate_stream(n_events, n_signatures, window_s,
                               per_sig_window)
    kwargs = dict(window_s=window_s, k=1_000_000, dedup_window_s=0.0,
                  max_lateness_s=1e12)

    reference = ReferenceCorrelationEngine(**kwargs)
    t0 = time.perf_counter()
    for event in events:
        reference.observe(event)
    reference_s = time.perf_counter() - t0

    per_event_s = float("inf")
    for _ in range(reps):
        per_event = CorrelationEngine(**kwargs)
        t0 = time.perf_counter()
        for event in events:
            per_event.observe(event)
        per_event_s = min(per_event_s, time.perf_counter() - t0)

    batched_s = float("inf")
    for _ in range(reps):
        batched = CorrelationEngine(**kwargs)
        t0 = time.perf_counter()
        for start in range(0, n_events, batch_size):
            batched.observe_batch(events[start:start + batch_size])
        batched_s = min(batched_s, time.perf_counter() - t0)

    # The three paths must have done the same correlation work, and the
    # batched engine must land in byte-identical state.
    assert (reference.metrics() == per_event.metrics()
            == batched.metrics())
    assert reference.watermark == per_event.watermark == batched.watermark
    assert (json.dumps(batched.snapshot(), sort_keys=True)
            == json.dumps(per_event.snapshot(), sort_keys=True))

    return {
        "events": float(n_events),
        "reference_eps": n_events / reference_s,
        "per_event_eps": n_events / per_event_s,
        "batched_eps": n_events / batched_s,
        "speedup_batched_vs_reference": reference_s / batched_s,
        "speedup_batched_vs_per_event": per_event_s / batched_s,
        "speedup_per_event_vs_reference": reference_s / per_event_s,
    }


# ----------------------------------------------------------------------
# Crash recovery cell: kill the analytics, restore from the durable store
# ----------------------------------------------------------------------

def _durable_scene(seed: int, n_vehicles: int, prevalence: float,
                   num_shards: int, capacity_eps: float, root,
                   snapshot_every_pumps: int):
    """A store-backed observe-only SOC scene (the responder's transitions
    live in the simulator, outside the snapshot/replay contract)."""
    sim = Simulator()
    rng = RngStreams(seed)
    campaigns = seeded_campaigns(rng, n_vehicles, prevalence)
    fleet = FleetModel(n_vehicles, campaigns)
    store = DurableStore(root)
    soc = SecurityOperationsCenter(
        sim, fleet, capacity_eps=capacity_eps, k=K, respond=False,
        num_shards=num_shards, store=store,
        snapshot_every_pumps=snapshot_every_pumps,
    )
    generator = FleetWorkloadGenerator(sim, rng, fleet, soc.pipeline)
    soc.start()
    generator.start()
    return sim, soc, store


def crash_recovery_cell(
    seed: int = 0,
    n_vehicles: int = 10_000,
    prevalence: float = 0.01,
    duration_s: float = 16.0,
    kill_pump: int = 27,
    num_shards: int = 4,
    capacity_eps: float = CAPACITY_EPS,
    snapshot_every_pumps: int = 10,
    root=None,
) -> Dict[str, float]:
    """Kill-at-pump + recover, differentially checked against an
    uninterrupted twin.

    The crashed run's analytic state (correlators, merger, incident
    tracker) is discarded at pump ``kill_pump`` and rebuilt from the
    durable store (latest snapshot + log-suffix replay); the rebuilt
    state must be byte-identical to the live state at the kill point,
    and the resumed run's final analytics and metrics byte-identical to
    the uninterrupted run's.  Any divergence raises -- the cell is the
    check.  Returns recovery-side stats (replayed volume, recovery wall
    time, log/snapshot footprint).
    """
    base = Path(root) if root is not None else Path(tempfile.mkdtemp())
    made_tmp = root is None
    try:
        ref_root = base / "reference"
        crash_root = base / "crashed"

        sim, soc, _ = _durable_scene(seed, n_vehicles, prevalence,
                                     num_shards, capacity_eps, ref_root,
                                     snapshot_every_pumps)
        sim.run_until(duration_s)
        soc.final_drain()
        ref_state = json.dumps(soc.analytics_snapshot(), sort_keys=True)
        ref_metrics = soc.metrics()

        sim, soc, store = _durable_scene(seed, n_vehicles, prevalence,
                                         num_shards, capacity_eps,
                                         crash_root, snapshot_every_pumps)
        sim.run_until(kill_pump * soc.pump_tick_s)
        live_mid = json.dumps(soc.analytics_snapshot(), sort_keys=True)
        t0 = time.perf_counter()
        recovered = recover_soc_state(store)
        recovery_wall_s = time.perf_counter() - t0
        rec_mid = json.dumps(recovered.analytics_snapshot(), sort_keys=True)
        if rec_mid != live_mid:
            raise AssertionError(
                "recovered state diverged from the live state at the "
                f"kill point (pump {kill_pump})")
        soc.adopt_analytics(recovered)
        sim.run_until(duration_s)
        soc.final_drain()
        if json.dumps(soc.analytics_snapshot(), sort_keys=True) != ref_state:
            raise AssertionError(
                "resumed run's final analytics diverged from the "
                "uninterrupted run")
        if soc.metrics() != ref_metrics:
            raise AssertionError(
                "resumed run's metrics diverged from the uninterrupted run")

        log_bytes = sum(p.stat().st_size
                        for p in store.log.root.glob("seg-*.log"))
        return {
            "fleet": float(n_vehicles),
            "num_shards": float(num_shards),
            "kill_pump": float(kill_pump),
            "events_logged": ref_metrics["dispatched"],
            "log_records": float(store.log.last_seq),
            "log_bytes": float(log_bytes),
            "replayed_events": float(recovered.replayed_events),
            "replayed_batches": float(recovered.replayed_batches),
            "replayed_pumps": float(recovered.replayed_pumps),
            "recovery_wall_s": recovery_wall_s,
            "incidents_recovered": float(len(recovered.tracker.incidents)),
            "campaigns_recovered": float(
                len(recovered.flagged_signatures())),
            "byte_identical": 1.0,
        }
    finally:
        if made_tmp:
            shutil.rmtree(base, ignore_errors=True)


# ----------------------------------------------------------------------
# Durable-log microbench: append / replay / forensics-scan throughput
# ----------------------------------------------------------------------

def store_microbench(
    n_events: int = 20_000,
    batch_size: int = 64,
    segment_max_records: int = 512,
    fsync: str = "never",
    root=None,
) -> Dict[str, float]:
    """Time the durable-log hot paths on a synthetic dispatch stream:
    ``append_eps`` (batched archival appends, the per-pump tap cost),
    ``replay_eps`` (full-log recovery replay), and ``scan_eps`` plus the
    sparse-index skip ratio for a narrow forensics window.  ``fsync``
    defaults to ``never`` so the numbers price the framing/codec, not
    the host's disk.
    """
    events = _correlate_stream(n_events, n_signatures=64, window_s=4.0,
                               per_sig_window=256)
    base = Path(root) if root is not None else Path(tempfile.mkdtemp())
    made_tmp = root is None
    try:
        log = EventLog(base / "log",
                       segment_max_records=segment_max_records,
                       fsync=fsync)
        t0 = time.perf_counter()
        for start in range(0, n_events, batch_size):
            batch = events[start:start + batch_size]
            log.append_batch(batch[0].time, 0, batch)
        append_s = time.perf_counter() - t0
        log.rotate()  # close the tail so every segment is indexed

        t0 = time.perf_counter()
        replayed = sum(len(r.events) for r in log.replay())
        replay_s = time.perf_counter() - t0
        assert replayed == n_events

        # Forensics: a 10%-of-stream time window; the sparse index should
        # let the scan touch only a fraction of the records.
        t_lo = events[int(n_events * 0.45)].time
        t_hi = events[int(n_events * 0.55)].time
        t0 = time.perf_counter()
        hits = sum(1 for _ in log.scan(t0=t_lo, t1=t_hi, max_disorder_s=0.0))
        scan_s = time.perf_counter() - t0
        stats = log.last_scan_stats
        total_records = log.last_seq
        log.close()

        return {
            "events": float(n_events),
            "batch_size": float(batch_size),
            "append_eps": n_events / append_s,
            "replay_eps": n_events / replay_s,
            "scan_eps": hits / scan_s if scan_s > 0 else 0.0,
            "scan_hits": float(hits),
            "scan_records_read": float(stats["records_read"]),
            "scan_read_fraction": (stats["records_read"] / total_records
                                   if total_records else 0.0),
            "segments": float(len(log.segment_paths())),
        }
    finally:
        if made_tmp:
            shutil.rmtree(base, ignore_errors=True)


def write_bench_json(
    path,
    cells: List[Dict[str, float]],
    correlate: Dict[str, float],
    store: Optional[Dict[str, float]] = None,
    recovery: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """Write the machine-readable E17 perf record (``BENCH_E17.json``)."""
    payload = {
        "schema": "bench-e17/v2",
        "duration_s": DURATION_S,
        "cells": cells,
        "correlate": correlate,
    }
    if store is not None:
        payload["store"] = store
    if recovery is not None:
        payload["recovery"] = recovery
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
