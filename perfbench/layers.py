"""The traced run: per-layer costs from replays of a run's own inputs.

End-to-end numbers always come from the untraced run.  The traced run
replays what that run recorded through each layer's public calls, in
pipeline order, with spans around the calls (``common.Tracer``):

- ``uplink-*``: the last round's two services (closed and open loop):
  each one's client byte stream and payloads, grouped into the handoffs
  its worker actually pumped (read
  back from the worker's log: the events between two pump markers),
  are fed through ``FrameStreamDecoder.feed``, ``batch_id_of`` +
  ``IngestService.route``, a pickle round trip of the handoff, an
  inline ``IngestService.flush`` (whose ``WorkerCore`` and centre calls
  are wrapped) and ``apply_report`` + ``encode_ack`` + ``frame_payload``.
  The same replay runs once without spans, for the tracing overhead.
- ``storm-replay``: the scene is driven once more into fresh centres
  whose layer calls are wrapped; the untraced run's last drive is the
  untraced twin.

``trace.overhead_frac`` is the traced replay's wall time over the
untraced one's, minus one.  ``trace.explained_frac`` is the replay's
summed self time net of that overhead (plus, for ``uplink-*``, the
replay's shutdown, whose final snapshot the service's CPU also pays),
per event, over the untraced run's per-event cost: CPU time of the
service processes for ``uplink-*`` (frontend and worker overlap, so
wall time would not add up), wall time of the drive for
``storm-replay`` (one thread).

Layers that sit outside the pipeline's call tree are timed on the same
inputs as separate breakdowns, not added into the explained share:
``decode_message``, ``cmac_verify`` of each batch tag, the handshake,
``build_batch`` on each drained batch, ``EventLog.replay``, an explicit
``save_snapshot``, and recovery.
"""

from __future__ import annotations

import pickle
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.soc import (
    DurableStore,
    FrameStreamDecoder,
    IngestService,
    StringInterner,
    auth_tag,
    build_batch,
    derive_session_key,
    recover_soc_state,
)
from repro.crypto.cmac import cmac_verify
from repro.soc.service import (
    AUTH_CONTEXT,
    BATCH_TAG_LEN,
    batch_id_of,
    decode_message,
    encode_ack,
    worker_root,
)
from repro.soc.store import frame_payload

import common

#: Every per-layer metric with its unit, in pipeline order.  A layer a
#: workload bypasses reads 0.
UNITS: Dict[str, str] = {
    "service.frame_us_per_batch": "us",
    "service.route_us_per_batch": "us",
    "service.handoff_us_per_event": "us",
    "service.handoff_bytes_per_event": "bytes",
    "service.decode_us_per_event": "us",
    "service.worker_handoff_self_us_per_event": "us",
    "service.ack_us_per_batch": "us",
    "service.frontend_cpu_us_per_event": "us",
    "service.worker_cpu_us_per_event": "us",
    "service.handoff_wait_ms": "ms",
    "service.suppress_transitions": "count",
    "service.submit_refusals": "count",
    "crypto.batch_verify_us_per_batch": "us",
    "crypto.handshake_ms_per_conn": "ms",
    "ingest.offer_us_per_event": "us",
    "ingest.dispatch_us_per_event": "us",
    "columnar.build_us_per_event": "us",
    "correlate.observe_us_per_event": "us",
    "incident.attach_us_per_event": "us",
    "shard.merge_us_per_pump": "us",
    "shard.audit_us_per_pump": "us",
    "store.append_us_per_event": "us",
    "store.log_bytes_per_event": "bytes",
    "store.mark_sync_us_per_pump": "us",
    "store.snapshot_ms": "ms",
    "store.replay_us_per_event": "us",
    "center.service_pump_us_per_event": "us",
    "center.service_pump_self_us_per_event": "us",
    "center.recover_us_per_event": "us",
    "federation.ship_us_per_record": "us",
    "federation.apply_us_per_event": "us",
    "tail.ack_p50_ms": "ms",
    "tail.ack_p99_ms": "ms",
    "tail.ack_samples": "count",
    "loadgen.late_ms_p99": "ms",
    "loadgen.credit_wait_ms_p99": "ms",
    "trace.explained_frac": "fraction",
    "trace.overhead_frac": "fraction",
}
HANDSHAKE_REPS = 20
SNAPSHOT_REPS = 3


def instrument_centre(centre, tracer: common.Tracer) -> None:
    """Wrap the public calls a ``service_pump`` makes into each layer.
    Whichever correlation entry point the centre's default path uses is
    the one that records spans."""
    tracer.wrap(centre, "service_pump", "center.service_pump")
    tracer.wrap(centre, "save_snapshot", "store.snapshot")
    tracer.wrap(centre.pipeline, "drain_all", "ingest.dispatch")
    for engine in centre.correlators:
        for method in ("observe", "observe_batch", "observe_columnar"):
            tracer.wrap(engine, method, "correlate.observe")
    tracer.wrap(centre.tracker, "open_from_detection", "incident.attach")
    tracer.wrap(centre.tracker, "attach_vehicle", "incident.attach")
    if centre.merger is not None:
        tracer.wrap(centre.merger, "merge", "shard.merge")
    if centre.audit is not None:
        tracer.wrap(centre.audit, "check", "shard.audit")
    log = centre.store.log
    for method in ("append_batch", "append_columnar"):
        tracer.wrap(log, method, "store.append")
    tracer.wrap(log, "append_mark", "store.mark_sync")
    tracer.wrap(log, "sync", "store.mark_sync")


def per(totals: Dict[str, Dict[str, float]], name: str, n: int,
        key: str = "self") -> float:
    """Microseconds of span ``name`` (self or total time) per unit."""
    t = totals.get(name)
    return t[key] * 1e6 / n if t and n else 0.0


def centre_layers(totals, events: int) -> Dict[str, float]:
    pumps = int(totals.get("center.service_pump", {}).get("count", 0))
    return {
        "ingest.offer_us_per_event": per(totals, "ingest.offer", events),
        "ingest.dispatch_us_per_event": per(totals, "ingest.dispatch", events),
        "correlate.observe_us_per_event": per(totals, "correlate.observe", events),
        "incident.attach_us_per_event": per(totals, "incident.attach", events),
        "shard.merge_us_per_pump": per(totals, "shard.merge", pumps),
        "shard.audit_us_per_pump": per(totals, "shard.audit", pumps),
        "store.append_us_per_event": per(totals, "store.append", events),
        "store.mark_sync_us_per_pump": per(totals, "store.mark_sync", pumps),
        "center.service_pump_us_per_event": per(totals, "center.service_pump", events,
                                                key="total"),
        "center.service_pump_self_us_per_event": per(totals, "center.service_pump", events),
    }


def store_breakdown(centre, store_root: Path) -> Tuple[int, Dict[str, float]]:
    """On a live centre's store: recovery from the latest snapshot (its
    self time beyond reading the log suffix), a full-log replay, the log
    size, ``build_batch`` over every archived batch, and the cost of a
    snapshot.  Returns the number of archived events and the metrics."""
    store = DurableStore(store_root)
    after_seq = store.snapshots.load_latest()["log_seq"]
    t0 = time.perf_counter()
    suffix = sum(len(r.events) for r in store.log.replay(after_seq=after_seq)
                 if r.kind == "batch")
    suffix_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    recovered = recover_soc_state(store)
    recover_s = time.perf_counter() - t0
    store.close()
    if recovered.replayed_events != suffix:
        raise common.CheckFailed("recovery replayed a different log suffix than the store holds")
    log = centre.store.log
    batches: List[list] = []
    t0 = time.perf_counter()
    for record in log.replay():
        if record.kind == "batch":
            batches.append(list(record.events))
    replay_s = time.perf_counter() - t0
    events = sum(map(len, batches))
    interner = StringInterner()
    t0 = time.perf_counter()
    for batch in batches:
        build_batch(batch, interner)
    build_s = time.perf_counter() - t0
    snap = []
    for _ in range(SNAPSHOT_REPS):
        t0 = time.perf_counter()
        centre.save_snapshot()
        snap.append(time.perf_counter() - t0)
    return events, {
        "store.snapshot_ms": common.median(snap) * 1e3,
        "store.replay_us_per_event": replay_s * 1e6 / events,
        "store.log_bytes_per_event":
            sum(p.stat().st_size for p in log.segment_paths()) / events,
        "columnar.build_us_per_event": build_s * 1e6 / events,
        "center.recover_us_per_event": (recover_s - suffix_s) * 1e6 / max(1, suffix),
    }


def weighted(parts: List[Tuple[int, Dict[str, float]]]) -> Dict[str, float]:
    """Combine per-store breakdowns, weighting each by its events."""
    total = sum(n for n, _ in parts)
    return {key: sum(n * d[key] for n, d in parts) / total for key in parts[0][1]}


def merged_totals(totals: List[Dict[str, Dict[str, float]]]
                  ) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for per_tracer in totals:
        for name, t in per_tracer.items():
            acc = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
            for key in acc:
                acc[key] += t[key]
    return out


def federation_layers(stores: Dict[str, object], profile, seed: int, events: int,
                      tracer: common.Tracer) -> Dict[str, float]:
    hub = common.ship_to_hub(stores, profile, seed, tracer)
    totals = tracer.totals()
    return {
        "federation.ship_us_per_record": per(totals, "federation.ship", hub["records"],
                                             key="total"),
        "federation.apply_us_per_event": per(totals, "federation.apply", events, key="total"),
    }


def finish(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in UNITS.items()}


# ----------------------------------------------------------------------
# uplink-*
# ----------------------------------------------------------------------

def handoffs_of(measured, log_root: Path) -> List[Tuple[float, List[int]]]:
    """The worker's handoffs as ``(dispatch time, [send index, ...])``:
    each pump marker seals the events archived since the previous one,
    and each event id belongs to exactly one sent batch."""
    index_of: Dict[str, int] = {}
    for i, (_, payload) in enumerate(measured.sends):
        body = payload[:-BATCH_TAG_LEN] if measured.sealed else payload
        for event in decode_message(body)[2]:
            index_of[event.event_id] = i
    store = DurableStore(log_root)
    out: List[Tuple[float, List[int]]] = []
    pending = set()
    for record in store.log.replay():
        if record.kind == "batch":
            pending.update(index_of[e.event_id] for e in record.events)
        elif pending:
            out.append((record.dispatch_t, sorted(pending)))
            pending = set()
    store.close()
    if sum(len(ix) for _, ix in out) != len(measured.sends):
        raise common.CheckFailed("worker log does not hold every sent batch exactly once")
    return out


def replay_service(measured, handoffs, config, root: Path,
                   tracer: common.Tracer) -> Dict[str, object]:
    """Drive one recorded service through an inline ``IngestService``;
    returns wall time, events, batches and handoff bytes."""
    client_ids = measured.client_ids
    service = IngestService(1, mode="inline", root=root, config=config)
    core = service.backend.cores[0]
    tracer.wrap(core, "ingest_handoff", "service.worker")
    tracer.wrap(core.soc.pipeline, "offer", "ingest.offer")
    instrument_centre(core.soc, tracer)
    conns = [service.open_conn(cid) for cid in client_ids]
    decoders = [FrameStreamDecoder() for _ in client_ids]
    sends = measured.sends
    wires = []
    for _, indices in handoffs:
        per_conn: Dict[int, List[bytes]] = {}
        for i in indices:
            per_conn.setdefault(sends[i][0], []).append(frame_payload(sends[i][1]))
        wires.append({g: b"".join(frames) for g, frames in per_conn.items()})
    handoff_bytes = 0
    t_start = time.perf_counter()
    for seq, ((t_send, indices), wire) in enumerate(zip(handoffs, wires), 1):
        with tracer.span("service.frame"):
            for g, data in wire.items():
                decoders[g].feed(data)
        with tracer.span("service.route"):
            for i in indices:
                g, payload = sends[i]
                batch_id_of(payload)
                service.route(conns[g], payload)
        with tracer.span("service.handoff"):
            items = [(conns[sends[i][0]].conn_id, client_ids[sends[i][0]],
                      batch_id_of(sends[i][1]), sends[i][1]) for i in indices]
            blob = pickle.dumps(("b", seq, t_send, time.monotonic(), items))
            pickle.loads(blob)
        handoff_bytes += len(blob)
        with tracer.span("service.flush"):
            service.flush()
        with tracer.span("service.ack"):
            report = service.backend.get_report()
            for _, batch_id, _, accepted in service.apply_report(report):
                frame_payload(encode_ack(batch_id, accepted, 1))
    wall = time.perf_counter() - t_start
    events = int(core.events_dispatched)
    if service.events_acked != events or service.batches_acked != len(sends):
        raise common.CheckFailed("replay did not ack every recorded batch")
    return {"wall": wall, "events": events, "batches": len(sends),
            "handoff_bytes": handoff_bytes, "service": service, "core": core}


def uplink_layers(measured, config, work: Path, seed: int, cpu_us_per_event: float,
                  observed: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    fleet_key = config.fleet_key
    client_ids = sorted({cid for m in measured for cid in m.client_ids})
    recorded = [(m, handoffs_of(m, worker_root(m.root, 0))) for m in measured]

    # Untraced twin first, then the traced replay on fresh stores.
    untraced_wall = traced_wall = 0.0
    for k, (m, handoffs) in enumerate(recorded):
        out = replay_service(m, handoffs, config, work / f"plain-{k}", common.NullTracer())
        out["service"].drain_and_close()
        untraced_wall += out["wall"]
    tracers: List[common.Tracer] = []
    totals: List[Dict[str, Dict[str, float]]] = []
    parts: List[Tuple[int, Dict[str, float]]] = []
    stores = {}
    events = batches = handoff_bytes = 0
    close_s = 0.0
    for k, (m, handoffs) in enumerate(recorded):
        root = work / f"traced-{k}"
        tracer = common.Tracer()
        out = replay_service(m, handoffs, config, root, tracer)
        tracers.append(tracer)
        totals.append(tracer.totals())
        traced_wall += out["wall"]
        events += out["events"]
        batches += out["batches"]
        handoff_bytes += out["handoff_bytes"]
        parts.append(store_breakdown(out["core"].soc, worker_root(root, 0)))
        # The shutdown (final snapshot, store close) is part of the
        # service's CPU per event too.
        t0 = time.perf_counter()
        out["service"].drain_and_close()
        close_s += time.perf_counter() - t0
        stores[m.phase] = DurableStore(worker_root(root, 0))
    pipeline_totals = merged_totals(totals)
    explained_s = (sum(t["self"] for t in pipeline_totals.values())
                   - (traced_wall - untraced_wall) + close_s)
    common.write_spans(tracers, work.parent / f"trace-{work.name}.jsonl")
    values = weighted(parts)

    # Breakdowns outside the pipeline's call tree.
    decode_s = verify_s = 0.0
    keys = {cid: derive_session_key(fleet_key, cid) for cid in client_ids} if fleet_key else {}
    for m in measured:
        for g, payload in m.sends:
            body, tag = ((payload[:-BATCH_TAG_LEN], payload[-BATCH_TAG_LEN:])
                         if fleet_key else (payload, b""))
            t0 = time.perf_counter()
            decode_message(body)
            t1 = time.perf_counter()
            decode_s += t1 - t0
            if fleet_key:
                cid = m.client_ids[g]
                ok = cmac_verify(keys[cid], cid.encode("utf-8") + b"|%d|" % batch_id_of(body)
                                 + body, tag)
                verify_s += time.perf_counter() - t1
                if not ok:
                    raise common.CheckFailed(f"batch tag of {cid} does not verify")
    handshake_ms = 0.0
    if fleet_key:
        nonce = bytes(16)
        t0 = time.perf_counter()
        for _ in range(HANDSHAKE_REPS):
            for cid in client_ids:
                key = derive_session_key(fleet_key, cid)
                tag = auth_tag(key, cid, nonce)
                if not cmac_verify(key, AUTH_CONTEXT + b"|" + cid.encode("utf-8")
                                   + b"|" + nonce, tag):
                    raise common.CheckFailed("handshake tag does not verify")
        handshake_ms = (time.perf_counter() - t0) * 1e3 / (HANDSHAKE_REPS * len(client_ids))

    from repro.soc import WorkerCore
    profile = WorkerCore(0, None, config).soc.federation_profile()
    values.update(federation_layers(stores, profile, seed, events, common.Tracer()))
    for store in stores.values():
        store.close()
    values.update(centre_layers(pipeline_totals, events))
    values.update(observed)
    values.update({
        "service.frame_us_per_batch": per(pipeline_totals, "service.frame", batches),
        "service.route_us_per_batch": per(pipeline_totals, "service.route", batches),
        "service.handoff_us_per_event": per(pipeline_totals, "service.handoff", events),
        "service.handoff_bytes_per_event": handoff_bytes / events,
        "service.decode_us_per_event": decode_s * 1e6 / events,
        "service.worker_handoff_self_us_per_event": per(pipeline_totals, "service.worker",
                                                        events),
        "service.ack_us_per_batch": per(pipeline_totals, "service.ack", batches),
        "crypto.batch_verify_us_per_batch": verify_s * 1e6 / batches,
        "crypto.handshake_ms_per_conn": handshake_ms,
        "trace.explained_frac": explained_s * 1e6 / events / cpu_us_per_event,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    })
    return finish(values)


# ----------------------------------------------------------------------
# storm-replay
# ----------------------------------------------------------------------

def storm_layers(scene, work: Path, seed: int, untraced: Dict[str, object],
                 observed: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    import storm

    tracer = common.Tracer()
    root = work / "traced"
    centres = storm.build_centres(root)
    storm.warm_up(centres, scene)
    for centre in centres.values():
        instrument_centre(centre, tracer)
    out = storm.drive(scene, centres, tracer)
    totals = tracer.totals()
    events = out["dispatched"]
    values = centre_layers(totals, events)
    explained_s = sum(t["self"] for t in totals.values()) - (out["wall"] - untraced["wall"])
    common.write_spans([tracer], work.parent / f"trace-{work.name}.jsonl")

    region = storm.RECOVER_REGION
    values.update(store_breakdown(centres[region], root / region)[1])
    log_bytes = sum(p.stat().st_size for c in centres.values()
                    for p in c.store.log.segment_paths())
    values["store.log_bytes_per_event"] = log_bytes / events
    profile = centres[region].federation_profile()
    for centre in centres.values():
        centre.store.close()
    stores = {r: DurableStore(root / r) for r in storm.REGIONS}
    values.update(federation_layers(stores, profile, seed, events, common.Tracer()))
    for store in stores.values():
        store.close()
    values.update({
        **observed,
        "trace.explained_frac": explained_s / untraced["wall"] * untraced["dispatched"] / events,
        "trace.overhead_frac": out["wall"] / untraced["wall"] - 1.0,
    })
    return finish(values)
