"""``storm-replay``: a class-break storm through three regional VSOCs.

In-process, no sockets, no crypto.  The scene's deliveries are split by
vehicle-id space across three regional ``SecurityOperationsCenter``s,
each with ``SHARDS`` shards and its own ``DurableStore``.  Each centre is
driven by ``pipeline.offer`` plus ``service_pump`` in handoff-sized
chunks, the regions taking turns.  The scene is driven ``DRIVES`` times
into fresh centres; after each drive one region restarts three times from
its store with ``recover_soc_state`` (snapshot 0 plus a whole-log replay), and
every region's log is shipped through ``SegmentShipper`` into a
``FederationHub`` built from the centres' own federation profile.  So
every timed metric has pieces in every drive, spread over the whole
run.  The run is pinned to one vCPU, and every timed piece is scaled to
that vCPU's full speed with readings taken around it
(``common.HostSpeed``).

A chunk's latency runs from its first ``offer`` to the return of its
``service_pump`` -- the point at which the service would ACK it.
"""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.sim import Simulator
from repro.soc import DurableStore, FleetModel, SecurityOperationsCenter

import common
import traffic

REGIONS = ("eu", "na", "ap")
SHARDS = 4
VEHICLES = 60_000
#: Deliveries per second of ``--seconds``: sizes the scene so that the
#: DRIVES drives take about 0.8 x ``--seconds`` on the reference host.
EVENTS_PER_SECOND = 3_000
SPAN_S = 60.0
CAMPAIGNS = 4
#: Share of deliveries on the class-break signatures (an assumption, see
#: README.md).
CAMPAIGN_SHARE = 0.10
#: Events per handoff: the in-flight window of two gateways with eight
#: credits each would carry 16 batches of 10.
CHUNK_EVENTS = 160
#: Centres built and warmed up only for ``setup_s``, before each drive.
SETUPS_PER_DRIVE = 1
RECOVER_REGION = "eu"
#: Restarts of that region after each drive.
RESTARTS_PER_DRIVE = 3
DRIVES = 8
#: Each drive is cut into this many stretches of consecutive chunks.
SEGMENTS = 12


def build_centres(root: Path) -> Dict[str, SecurityOperationsCenter]:
    centres = {r: SecurityOperationsCenter(Simulator(), FleetModel(0, []), num_shards=SHARDS,
                                           store=DurableStore(root / r))
               for r in REGIONS}
    for centre in centres.values():
        centre.start_service()
    return centres


def warm_up(centres, scene: traffic.StormScene) -> None:
    for region, centre in centres.items():
        events = scene.warmup[region]
        now = max(e.time for e in events)
        for event in events:
            centre.pipeline.offer(now, event)
        centre.service_pump(now)


def set_up(root: Path, scene: traffic.StormScene) -> Dict[str, SecurityOperationsCenter]:
    """Build and warm up the centres: the work ``setup_s`` times."""
    centres = build_centres(root)
    warm_up(centres, scene)
    return centres


def plan(scene: traffic.StormScene) -> List[Tuple[str, list]]:
    """A drive's chunks in order, the regions taking turns."""
    cursors = {r: 0 for r in REGIONS}
    out = []
    while any(cursors[r] < len(scene.streams[r]) for r in REGIONS):
        for region in REGIONS:
            stream = scene.streams[region]
            lo = cursors[region]
            if lo < len(stream):
                out.append((region, stream[lo:lo + CHUNK_EVENTS]))
                cursors[region] = lo + CHUNK_EVENTS
    return out


def drive(scene: traffic.StormScene, centres, tracer: common.Tracer,
          speed: Optional[common.HostSpeed] = None) -> Dict[str, object]:
    """Offer every region's deliveries chunk by chunk, pumping after
    each chunk.  Returns counts, the drive's wall time in chunks, and
    per stretch of consecutive chunks its seconds, the events it
    dispatched and its median chunk latency, and every chunk's latency.
    With ``speed``, the host is read at every stretch's bounds and a
    stretch's times are scaled by the mean of its two readings."""
    speed = speed or common.FixedSpeed()
    chunks = plan(scene)
    bounds = [k * len(chunks) // SEGMENTS for k in range(SEGMENTS + 1)]
    stretches: List[Tuple[float, int, float]] = []
    latencies: List[float] = []
    offered = accepted = dispatched = 0
    wall = 0.0
    reading = speed.read()
    for lo, hi in zip(bounds, bounds[1:]):
        walls = []
        events = 0
        for region, chunk in chunks[lo:hi]:
            centre = centres[region]
            offer = centre.pipeline.offer
            now = chunk[-1][0]
            t0 = time.perf_counter()
            with tracer.span("ingest.offer"):
                for _, event in chunk:
                    accepted += offer(now, event)
            n = centre.service_pump(now)
            walls.append(time.perf_counter() - t0)
            events += n
            offered += len(chunk)
        wall += sum(walls)
        dispatched += events
        previous, reading = reading, speed.read()
        scale = (previous + reading) / 2
        stretches.append((sum(walls) * scale, events, common.median(walls) * scale))
        latencies.extend(w * scale for w in walls)
    for region, centre in centres.items():
        if centre.pipeline.queue_depth:
            raise common.CheckFailed(f"{region}: events left queued after the pump")
    if dispatched != accepted:
        raise common.CheckFailed(f"dispatched {dispatched} != admitted {accepted}")
    return {"wall": wall, "stretches": stretches, "latencies": latencies, "offered": offered,
            "accepted": accepted, "dispatched": dispatched}


def scene_for(seed: int, seconds: float) -> traffic.StormScene:
    return traffic.storm_scene(seed, REGIONS, VEHICLES, int(EVENTS_PER_SECOND * seconds),
                               SPAN_S, CAMPAIGNS, CAMPAIGN_SHARE)


def restart_region(root: Path, live: str, planted, speed: common.HostSpeed) -> List[float]:
    """Restart region ``RECOVER_REGION`` from its store
    ``RESTARTS_PER_DRIVE`` times and check each recovered state; returns
    the restarts' scaled seconds."""
    states, recover_s = speed.timed_all(
        [(common.restart, root / RECOVER_REGION)] * RESTARTS_PER_DRIVE)
    for recovered in states:
        if common.canonical(recovered.analytics_snapshot()) != live:
            raise common.CheckFailed(
                f"{RECOVER_REGION}: recovered snapshot differs from the live one")
        if recovered.flagged_signatures() != planted:
            raise common.CheckFailed(f"{RECOVER_REGION}: recovered state lost a campaign")
    return recover_s


def recover_and_federate(scene, centres, root: Path, seed: int,
                         speed: common.HostSpeed) -> Tuple[List[float], float]:
    """Check a drive's live state, ship every region's log to a fresh
    hub, then restart one region from its store.  Returns the restarts'
    scaled seconds and the hub's events applied per scaled second."""
    flagged = set()
    for region, centre in centres.items():
        got = centre.flagged_signatures()
        if got != scene.planted:
            raise common.CheckFailed(
                f"{region}: detected {sorted(got)} != planted {sorted(scene.planted)}")
        flagged |= got
    live = common.canonical(centres[RECOVER_REGION].analytics_snapshot())
    profile = centres[RECOVER_REGION].federation_profile()
    for centre in centres.values():
        centre.store.close()
    stores = {r: DurableStore(root / r) for r in REGIONS}
    events = sum(len(stream) for stream in scene.streams.values()) + sum(
        map(len, scene.warmup.values()))
    hub = common.ship_to_hub(stores, profile, seed, speed=speed)
    for store in stores.values():
        store.close()
    if hub["flagged"] != flagged:
        raise common.CheckFailed(
            f"hub flagged {sorted(hub['flagged'])} != regions' union {sorted(flagged)}")
    return restart_region(root, live, scene.planted, speed), events / hub["apply_s"]


def run(seed: int, seconds: float, work: Path, trace: bool) -> common.Result:
    # One thread does all the work; pinning it lets every reading of the
    # host's speed be a reading of the vCPU that runs the program.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scene = scene_for(seed, seconds)
    common.freeze_inputs()
    speed = common.HostSpeed()
    setup: List[float] = []
    outs = []
    recover: List[float] = []
    hub_eps: List[float] = []
    for d in range(DRIVES):
        for rep in range(SETUPS_PER_DRIVE):
            centres, setup_s = speed.timed(set_up, work / f"setup-{d}-{rep}", scene)
            setup.append(setup_s)
            for centre in centres.values():
                centre.store.close()
        root = work / f"drive-{d}"
        centres, setup_s = speed.timed(set_up, root, scene)
        setup.append(setup_s)
        outs.append(drive(scene, centres, common.NullTracer(), speed))
        recover_s, eps = recover_and_federate(scene, centres, root, seed, speed)
        recover.extend(recover_s)
        hub_eps.append(eps)
    latencies = sorted(w for out in outs for w in out["latencies"])
    q, tail = common.tail_percentile(latencies)
    offered = sum(out["offered"] for out in outs)
    common.note(f"storm-replay: {outs[0]['offered']} deliveries ({scene.duplicates} duplicates, "
                f"{scene.delayed} delayed) driven {DRIVES} times in {len(latencies)} chunks; "
                f"chunk tail percentile p{100 * q:.2f}")
    for d, out in enumerate(outs):
        common.note(f"storm-replay: drive {d} stretch rates (events/s): "
                    + " ".join(f"{n / w:.0f}" for w, n, _ in out["stretches"]))
    stretches = [s for out in outs for s in out["stretches"]]
    common.note("storm-replay: recover_s per restart: " + " ".join(f"{x:.3f}" for x in recover))
    common.note("storm-replay: hub events/s per drive: " + " ".join(f"{x:.0f}" for x in hub_eps))
    common.note("storm-replay: host speed readings: "
                + " ".join(f"{x:.2f}" for x in speed.readings))
    result = common.Result(attempted=offered,
                           failed=offered - sum(out["accepted"] for out in outs))
    result.end_to_end = {
        "setup_s": common.median(setup),
        "acked_eps": common.median([sum(n for _, n, _ in out["stretches"])
                                    / sum(w for w, _, _ in out["stretches"]) for out in outs]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "recover_s": common.median(recover),
        "hub_apply_eps": common.median(hub_eps),
    }
    if trace:
        import layers
        result.per_layer = layers.storm_layers(
            scene, work, seed, outs[-1],
            {"tail.ack_p50_ms": common.median([p for _, _, p in stretches]) * 1e3,
             "tail.ack_p99_ms": tail * 1e3, "tail.ack_samples": len(latencies)})
    return result
