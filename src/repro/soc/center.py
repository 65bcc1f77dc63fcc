"""The VSOC facade: ingestion -> correlation -> incidents -> response.

Wires the four subsystem stages into one
:class:`SecurityOperationsCenter` running on a shared simulation kernel,
and aggregates every stage's counters into a single flat ``metrics()``
dict (the shape E17 publishes and the determinism tests pin).

Correlation topology scales with the ingest topology:

- ``num_shards == 1``: one :class:`~repro.soc.correlate.CorrelationEngine`
  fed straight off the pipeline, one Python call per drained batch
  (``add_batch_sink`` -> ``observe_batch``);
- ``num_shards > 1``: one **shard-local** engine per ingest shard plus a
  :class:`~repro.soc.correlate.GlobalCampaignMerger` that stitches the
  local verdicts (and, under region sharding, sub-threshold cross-shard
  windows) into fleet-wide campaigns after every pump.  Merged campaigns
  are adopted back into every engine so spread attribution stays exact
  and one event is never correlated twice.

Incident attribution has one routine per topology --
:func:`observe_and_attribute` (a drained batch on an unsharded engine)
and :func:`merge_and_attribute` (one merge at a pump boundary) -- shared
by the live sinks, crash recovery (:func:`recover_soc_state`) and the
federation hub's replay, so replayed attribution cannot drift from live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.core.safety import Asil
from repro.sim import Simulator
from repro.soc.correlate import (
    CampaignDetection,
    CorrelationEngine,
    GlobalCampaignMerger,
)
from repro.soc.events import (
    DEFAULT_SOURCE_SEVERITY,
    SecurityEvent,
    source_for_signature,
)
from repro.soc.fleet import FleetModel
from repro.soc.incident import AMENDMENT_KINDS, Amendment, IncidentTracker
from repro.soc.ingest import IngestPipeline, ShedPolicy
from repro.soc.respond import ResponseOrchestrator
from repro.soc.shard import ConservationAudit, ShardedIngestPipeline, ShardKeyFn
from repro.soc.store import DurableStore


#: Opens (or finds) the incident for a verdict at a base severity.  The
#: live centre also pages its responder; replay paths open on the
#: tracker directly.
OpenIncident = Callable[[CampaignDetection, Asil], object]


def base_severity(detection: CampaignDetection) -> Asil:
    """Merged detections carry no triggering event; recover the source
    family from the signature namespace (same defaulting as a batch
    verdict's triggering event)."""
    source = source_for_signature(detection.signature)
    if source is None:
        return Asil.A
    return DEFAULT_SOURCE_SEVERITY.get(source, Asil.A)


def observe_and_attribute(engine: CorrelationEngine,
                          events: List[SecurityEvent],
                          tracker: IncidentTracker,
                          open_incident: OpenIncident) -> None:
    """Observe one drained batch on an unsharded engine and attribute
    it: a verdict opens an incident at its triggering event's source
    severity; an event of an already-flagged signature attaches its
    vehicle to that incident."""
    attach = tracker.attach_vehicle
    is_flagged = engine.is_flagged
    for event, detection in zip(events, engine.observe_batch(events)):
        if detection is not None:
            open_incident(detection,
                          DEFAULT_SOURCE_SEVERITY.get(event.source, Asil.A))
        elif is_flagged(event.signature):
            attach(event.signature, event.vehicle_id)


def merge_and_attribute(merger: GlobalCampaignMerger,
                        engines: Sequence[CorrelationEngine],
                        tracker: IncidentTracker,
                        open_incident: OpenIncident
                        ) -> List[CampaignDetection]:
    """One pump-boundary merge: stitch the engines, adopt each new
    fleet-wide verdict back into every engine (so they track spread
    exactly from here on and never re-fire), open its incident, then
    attach newly attributed vehicles in sorted order.  Returns the new
    verdicts."""
    new_detections, new_vehicles = merger.merge(engines)
    for detection in new_detections:
        for engine in engines:
            engine.adopt_campaign(detection)
        open_incident(detection, base_severity(detection))
    for signature in sorted(new_vehicles):
        for vehicle in sorted(new_vehicles[signature]):
            tracker.attach_vehicle(signature, vehicle)
    return new_detections


def _analytics_snapshot(pump_no: int, log_seq: int,
                        engines: Sequence[CorrelationEngine],
                        merger: Optional[GlobalCampaignMerger],
                        tracker: IncidentTracker) -> Dict[str, object]:
    return {
        "pump_no": pump_no,
        "log_seq": log_seq,
        "sharded": merger is not None,
        "engines": [e.snapshot() for e in engines],
        "merger": merger.snapshot() if merger else None,
        "tracker": tracker.snapshot(),
    }


class SecurityOperationsCenter:
    """An OEM fleet SOC over a simulated vehicle population.

    ``respond=False`` gives the observe-only configuration used as the
    E17 baseline: everything is ingested and correlated, but no incident
    ever reaches containment -- the fleet burns.

    Drained batches reach the correlators through batch sinks only
    (``observe_batch``, one call per batch).  ``shard_local_correlate``
    (default: on whenever ``num_shards > 1``) gives every ingest shard
    its own correlator, stitched by a :class:`GlobalCampaignMerger` each
    pump.
    """

    def __init__(
        self,
        sim: Simulator,
        fleet: FleetModel,
        capacity_eps: float = 250.0,
        queue_capacity: int = 2048,
        batch_size: int = 64,
        shed_policy: ShedPolicy = ShedPolicy.LOWEST_SEVERITY,
        window_s: float = 8.0,
        k: int = 3,
        dedup_window_s: float = 4.0,
        max_lateness_s: float = 2.0,
        respond: bool = True,
        ota_sample: int = 1,
        pump_tick_s: float = 0.25,
        num_shards: int = 1,
        shard_key: Optional[ShardKeyFn] = None,
        audit: bool = True,
        shard_local_correlate: Optional[bool] = None,
        store: Optional[DurableStore] = None,
        snapshot_every_pumps: int = 0,
    ) -> None:
        self.sim = sim
        self.fleet = fleet
        self.pump_tick_s = pump_tick_s
        self.store = store
        self.snapshot_every_pumps = snapshot_every_pumps
        self._pump_no = 0
        # Correlation parameters, kept for federation_profile(): a hub
        # must build replica engines with exactly the region's hygiene
        # settings or replayed verdicts diverge from local ones.
        self.window_s = window_s
        self.k = k
        self.dedup_window_s = dedup_window_s
        self.max_lateness_s = max_lateness_s

        # num_shards=1 keeps the plain single-queue pipeline (the two are
        # behaviorally identical -- the differential tests prove it -- but
        # the plain object is what the pre-shard seed benchmarks pinned).
        if num_shards > 1:
            self.pipeline = ShardedIngestPipeline(
                num_shards=num_shards,
                shard_key=shard_key,
                capacity_eps=capacity_eps,
                queue_capacity=queue_capacity,
                batch_size=batch_size,
                shed_policy=shed_policy,
            )
        else:
            self.pipeline = IngestPipeline(
                capacity_eps=capacity_eps,
                queue_capacity=queue_capacity,
                batch_size=batch_size,
                shed_policy=shed_policy,
            )
        self.audit: Optional[ConservationAudit] = (
            ConservationAudit() if audit else None
        )

        # Archival taps go in *before* the correlator sinks (write-ahead:
        # by the time analytics sees a batch it is already in the log).
        shards = (self.pipeline.shards
                  if isinstance(self.pipeline, ShardedIngestPipeline)
                  else [self.pipeline])
        if store is not None:
            for index, shard in enumerate(shards):
                shard.add_batch_sink(self._archive_handler(index))

        def _engine() -> CorrelationEngine:
            return CorrelationEngine(
                window_s=window_s, k=k,
                dedup_window_s=dedup_window_s, max_lateness_s=max_lateness_s,
            )

        if shard_local_correlate is None:
            shard_local_correlate = num_shards > 1
        if shard_local_correlate and num_shards > 1:
            self.correlators: List[CorrelationEngine] = [
                _engine() for _ in range(num_shards)
            ]
            self.correlator: Optional[CorrelationEngine] = None
            self.merger: Optional[GlobalCampaignMerger] = (
                GlobalCampaignMerger(window_s=window_s, k=k)
            )
            for index, shard in enumerate(shards):
                shard.add_batch_sink(self._shard_batch_handler(index))
        else:
            self.correlator = _engine()
            self.correlators = [self.correlator]
            self.merger = None
            self.pipeline.add_batch_sink(self._on_batch)

        self.tracker = IncidentTracker()
        self.responder: Optional[ResponseOrchestrator] = (
            ResponseOrchestrator(sim, self.tracker, fleet,
                                 ota_sample=ota_sample)
            if respond else None
        )
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if not self._started:
            self._started = True
            if self.store is not None:
                # Snapshot 0: recovery always has a base state to restore,
                # even if the process dies before the first periodic one.
                self.save_snapshot()
            self.sim.schedule(self.pump_tick_s, self._pump)

    def _pump(self) -> None:
        self.pipeline.pump(self.sim.now)
        self._finish_pump()
        self.sim.schedule(self.pump_tick_s, self._pump)

    def _finish_pump(self, now: Optional[float] = None) -> None:
        """Post-dispatch bookkeeping every pump shares: audit, campaign
        merge, the durable pump marker, and the periodic snapshot.
        ``now`` defaults to simulation time; service drive mode passes
        the wall-clock handoff time instead."""
        if self.audit is not None:
            self.audit.check(self.pipeline)
        self._merge_campaigns()
        if self.store is not None:
            self._pump_no += 1
            self.store.log.append_mark(
                self.sim.now if now is None else now, self._pump_no)
            if (self.snapshot_every_pumps
                    and self._pump_no % self.snapshot_every_pumps == 0):
                self.save_snapshot()

    def start_service(self) -> None:
        """Arm this center for network-service drive mode
        (:mod:`repro.soc.service`): write snapshot 0 so recovery always
        has a base state, but schedule nothing -- the service's worker
        loop calls :meth:`service_pump` on every queue handoff instead
        of the simulation kernel calling :meth:`_pump` on a tick."""
        if not self._started:
            self._started = True
            if self.store is not None:
                self.save_snapshot()

    def service_pump(self, now: float, sync_log: bool = True,
                     pre_mark: Optional[Callable[[], None]] = None) -> int:
        """One network-service pump: drain *everything* queued at wall
        time ``now``, then run the standard post-dispatch bookkeeping
        (audit, campaign merge, durable pump marker, periodic snapshot).

        This is the drive mode a :class:`~repro.soc.service.WorkerCore`
        uses -- arrival cadence replaces the simulated capacity budget,
        so each handoff batch is dispatched whole and the pump marker
        records the handoff boundary replay must reproduce.  With
        ``sync_log`` (default) the event log is flushed to the OS after
        the marker, so a SIGKILLed worker process loses nothing that was
        acknowledged (the log's own torn-tail recovery covers the kill
        landing mid-append).  Returns the number of events dispatched.

        ``pre_mark``, if given, runs after the batch records are
        archived but *before* the pump marker is appended.  The worker
        auto-restart protocol hangs its handoff journal write here: the
        marker is the commit point restart recovery truncates back to,
        so anything that must be durable-before-commit (the recorded
        acks for this handoff) goes through this hook.
        """
        dispatched = self.pipeline.drain_all(now)
        if pre_mark is not None:
            pre_mark()
        self._finish_pump(now)
        if self.store is not None and sync_log:
            self.store.log.sync()
        return dispatched

    def final_drain(self) -> None:
        """Audited pump + merge rounds until every queue is empty, so all
        in-flight events are scored and accounted before the experiment
        reads its metrics.

        The first round is a normal rate-budgeted pump (the residual
        capacity since the last tick); at a fixed ``sim.now`` further
        pumps would grant zero budget, so the remaining backlog drains
        through :meth:`~repro.soc.ingest.IngestPipeline.drain_all`, which
        is bounded by the events still queued.  A single pump here used
        to strand anything deeper than one capacity budget.
        """
        self.pipeline.pump(self.sim.now)
        self._finish_pump()
        while self.pipeline.queue_depth:
            self.pipeline.drain_all(self.sim.now)
            self._finish_pump()

    # ------------------------------------------------------------------
    # Correlation sinks
    # ------------------------------------------------------------------
    def _on_batch(self, now: float, events: List[SecurityEvent]) -> None:
        observe_and_attribute(self.correlator, events, self.tracker,
                              self._open_incident)

    def _shard_batch_handler(self, index: int):
        """Shard-local batched observe; verdicts surface at merge time.
        Binds the shard *index*, not the engine object, so adopting
        recovered engines (:meth:`adopt_analytics`) rewires the sinks."""
        def handle(now: float, events: List[SecurityEvent]) -> None:
            self.correlators[index].observe_batch(events)
        return handle

    def _archive_handler(self, index: int):
        """Batch-sink tap appending each dispatched batch to the log."""
        log = self.store.log

        def archive(now: float, events: List[SecurityEvent]) -> None:
            log.append_batch(now, index, events)
        return archive

    def _merge_campaigns(self) -> None:
        if self.merger is not None:
            merge_and_attribute(self.merger, self.correlators, self.tracker,
                                self._open_incident)

    def _open_incident(self, detection: CampaignDetection,
                       base: Asil) -> None:
        incident = self.tracker.open_from_detection(detection, base)
        if self.responder is not None:
            self.responder.on_detection(incident)

    # ------------------------------------------------------------------
    # Durable snapshots / recovery
    # ------------------------------------------------------------------
    def analytics_snapshot(self) -> Dict[str, object]:
        """Canonical dump of every piece of recoverable analytic state,
        taken at a pump boundary (engines, merger, tracker are mutually
        consistent there).  Two runs in the same state produce the same
        bytes under ``json.dumps(..., sort_keys=True)`` -- the equality
        the crash-recovery differential tests compare on.
        """
        return _analytics_snapshot(
            self._pump_no, self.store.log.last_seq if self.store else 0,
            self.correlators, self.merger, self.tracker)

    def save_snapshot(self):
        """Persist the analytic state; the log is synced first so a
        snapshot never references records less durable than itself."""
        self.store.log.sync()
        return self.store.snapshots.save(self.analytics_snapshot())

    def adopt_analytics(self, recovered: "RecoveredAnalytics") -> None:
        """Swap recovered analytic state into this (running) center.

        The correlator sinks resolve engines through ``self.correlators``
        at call time, so adoption rewires them without touching the
        pipeline; the ingest tier (queues, counters) is not part of the
        recovery contract and keeps running as-is.
        """
        self.correlators = list(recovered.engines)
        self.correlator = (
            None if recovered.merger is not None else self.correlators[0])
        self.merger = recovered.merger
        self.tracker = recovered.tracker
        if self.responder is not None:
            self.responder.tracker = recovered.tracker
        self._pump_no = recovered.pump_no

    # ------------------------------------------------------------------
    # Federation hooks
    # ------------------------------------------------------------------
    def federation_profile(self) -> Dict[str, object]:
        """The shape a :class:`~repro.soc.federation.FederationHub` needs
        to build byte-compatible replica engines for this region: the
        shard fan-out plus every correlation-hygiene parameter."""
        return {
            "num_shards": len(self.correlators),
            "window_s": self.window_s,
            "k": self.k,
            "dedup_window_s": self.dedup_window_s,
            "max_lateness_s": self.max_lateness_s,
        }

    def export_verdicts(self) -> List[CampaignDetection]:
        """This region's campaign verdicts in fire order -- the payload
        of the lightweight verdict-level federation path
        (:meth:`~repro.soc.federation.FederationHub.adopt_verdicts`)."""
        if self.merger is not None:
            return list(self.merger.detections)
        return list(self.correlator.detections)

    def adopt_amendments(self, amendments) -> Dict[str, int]:
        """Consume a hub's reconciliation feed
        (:meth:`~repro.soc.federation.FederationHub.export_amendments`)
        -- dicts or :class:`~repro.soc.incident.Amendment` objects --
        applying each outcome to this region's incident tracker.
        Returns counts per kind plus ``unmatched`` (amendments whose
        signature opened no incident here; a region only ever saw its
        own slice of the fleet, so unmatched is the common case, not an
        error)."""
        counts: Dict[str, int] = {kind: 0 for kind in AMENDMENT_KINDS}
        counts["unmatched"] = 0
        for obj in amendments:
            amendment = (obj if isinstance(obj, Amendment)
                         else Amendment(**obj))
            counts[amendment.kind] += 1
            if not self.tracker.record_amendment(amendment):
                counts["unmatched"] += 1
        return counts

    # ------------------------------------------------------------------
    def flagged_signatures(self) -> Set[str]:
        if self.merger is not None:
            return set(self.merger.flagged_signatures)
        return set(self.correlator.flagged_signatures)

    def precision_recall(self) -> Dict[str, float]:
        """Score flagged signatures against the fleet's ground truth."""
        truth = self.fleet.attack_signatures()
        flagged = self.flagged_signatures()
        tp = len(flagged & truth)
        precision = tp / len(flagged) if flagged else 1.0
        recall = tp / len(truth) if truth else 1.0
        return {"precision": precision, "recall": recall,
                "true_positives": float(tp),
                "false_positives": float(len(flagged) - tp)}

    def _correlator_metrics(self) -> Dict[str, float]:
        if self.merger is None:
            return self.correlator.metrics()
        merged: Dict[str, float] = {}
        for engine in self.correlators:
            for key, value in engine.metrics().items():
                merged[key] = merged.get(key, 0.0) + value
        # Campaign count is a fleet-level fact: adopted local flags would
        # count one campaign once per shard.
        merged["campaigns_flagged"] = float(
            len(self.merger.flagged_signatures))
        return merged

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        out.update(self.pipeline.metrics())
        out.update(self._correlator_metrics())
        out.update(self.precision_recall())
        out["incidents_open"] = float(len(self.tracker.incidents))
        out["mean_time_to_containment_s"] = self.tracker.mean_time_to_containment_s()
        if self.responder is not None:
            out.update(self.responder.metrics())
        out["fleet_compromised"] = float(self.fleet.total_compromised())
        out["fleet_targets"] = float(self.fleet.total_targets())
        if self.audit is not None:
            out["audit_checks"] = float(self.audit.checks)
        return out


# ----------------------------------------------------------------------
# Crash recovery: snapshot + log-suffix replay
# ----------------------------------------------------------------------

@dataclass
class RecoveredAnalytics:
    """Analytic state rebuilt from a :class:`~repro.soc.store.DurableStore`.

    Hand it to :meth:`SecurityOperationsCenter.adopt_analytics` to resume
    a live center, or inspect it directly for post-mortem forensics.
    """

    engines: List[CorrelationEngine]
    merger: Optional[GlobalCampaignMerger]
    tracker: IncidentTracker
    pump_no: int
    log_seq: int
    replayed_batches: int = 0
    replayed_events: int = 0
    replayed_pumps: int = 0

    def flagged_signatures(self) -> Set[str]:
        if self.merger is not None:
            return set(self.merger.flagged_signatures)
        return set(self.engines[0].flagged_signatures)

    def analytics_snapshot(self) -> Dict[str, object]:
        """Same canonical shape as
        :meth:`SecurityOperationsCenter.analytics_snapshot`."""
        return _analytics_snapshot(self.pump_no, self.log_seq, self.engines,
                                   self.merger, self.tracker)


def recover_soc_state(store: DurableStore,
                      mark_boundary_only: bool = False
                      ) -> RecoveredAnalytics:
    """Rebuild the analytic state a dead SOC process would have had.

    Loads the latest valid snapshot, then replays every log record after
    the snapshot's ``log_seq``: batch records feed ``observe_batch`` on
    the owning shard's engine (with the exact batch boundaries and
    incident attribution of the live dispatch path), and each pump marker
    re-runs the campaign merge, reproducing the live pump/merge cadence.
    The result is byte-identical (under :meth:`RecoveredAnalytics.\
analytics_snapshot`) to the uninterrupted run at the same pump boundary
    -- the tentpole differential in ``tests/test_soc_store.py``.

    With ``mark_boundary_only`` batch records are applied only once the
    pump marker that seals them arrives; a trailing run of batch records
    past the last marker (a handoff the process died inside) is left
    unapplied, so the recovered state lands exactly on a handoff
    boundary.  This is the worker auto-restart contract: the frontend
    resubmits the torn handoff, and re-processing it from the boundary
    is what makes restart byte-identical to the uninterrupted twin
    (:class:`~repro.soc.service.WorkerCore` pairs this with
    :meth:`~repro.soc.store.EventLog.truncate_after_last_mark` so the
    log *bytes* agree too).
    """
    snap = store.snapshots.load_latest()
    if snap is None:
        raise RuntimeError(
            "no recoverable snapshot: the center writes snapshot 0 at "
            "start(), so an empty snapshot store means this DurableStore "
            "never backed a running SOC")
    engines = [CorrelationEngine.from_snapshot(s) for s in snap["engines"]]
    merger = (GlobalCampaignMerger.from_snapshot(snap["merger"])
              if snap["merger"] is not None else None)
    tracker = IncidentTracker.from_snapshot(snap["tracker"])
    pump_no = snap["pump_no"]
    last_seq = snap["log_seq"]
    batches = events_replayed = pumps = 0

    def _apply_batch(record) -> None:
        nonlocal batches, events_replayed
        batches += 1
        events_replayed += len(record.events)
        batch = list(record.events)
        if merger is None:
            observe_and_attribute(engines[0], batch, tracker,
                                  tracker.open_from_detection)
        else:
            engines[record.shard].observe_batch(batch)

    pending: List = []  # batch records awaiting their sealing marker
    for record in store.log.replay(after_seq=snap["log_seq"]):
        if record.kind == "batch":
            if mark_boundary_only:
                pending.append(record)
                continue
            last_seq = record.seq
            _apply_batch(record)
        else:  # pump marker: the live run merged campaigns here
            for sealed in pending:
                _apply_batch(sealed)
            pending.clear()
            last_seq = record.seq
            pumps += 1
            pump_no = record.pump_no
            if merger is not None:
                merge_and_attribute(merger, engines, tracker,
                                    tracker.open_from_detection)
    # mark_boundary_only: anything still pending is a torn handoff past
    # the last marker -- deliberately not applied (see docstring).

    return RecoveredAnalytics(
        engines=engines, merger=merger, tracker=tracker,
        pump_no=pump_no, log_seq=last_seq,
        replayed_batches=batches, replayed_events=events_replayed,
        replayed_pumps=pumps)
