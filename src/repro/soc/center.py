"""The VSOC facade: ingestion -> correlation -> incidents -> response.

Wires the four subsystem stages into one
:class:`SecurityOperationsCenter` running on a shared simulation kernel,
and aggregates every stage's counters into a single flat ``metrics()``
dict (the shape E17 publishes and the determinism tests pin).

There is one ingest pipeline (:class:`~repro.soc.ingest.IngestPipeline`,
``num_shards`` queues) and one correlation topology at every shard
count: one **shard-local** :class:`~repro.soc.correlate.CorrelationEngine`
per ingest shard plus a :class:`~repro.soc.correlate.GlobalCampaignMerger`
that stitches the local verdicts (and, at a federation hub whose
engines are regions, sub-threshold cross-engine windows) into fleet-wide
campaigns after every pump.  Merged campaigns are adopted back into
every engine so spread attribution stays exact and one event is never
correlated twice.

:class:`AnalyticState` owns the engines, the merger and the incident
tracker, and is the one place that knows how a batch record or
a pump marker changes them.  The live centre, crash recovery
(:func:`recover_soc_state`) and the federation hub's replay all apply
records through it, so replayed attribution cannot drift from live.
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
from repro.soc.incident import IncidentTracker
from repro.soc.ingest import IngestPipeline
from repro.soc.respond import ResponseOrchestrator
from repro.soc.shard import ConservationAudit
from repro.soc.store import DurableStore, LogRecord


#: Simulated seconds between scheduled pumps of a started centre.
PUMP_TICK_S = 0.25

#: Opens (or finds) the incident for a verdict at a base severity.  The
#: live centre also pages its responder; replay paths open on the
#: tracker directly.
OpenIncident = Callable[[CampaignDetection, Asil], object]


class AnalyticState:
    """The replayable analytic core: a flat list of correlation engines,
    the :class:`GlobalCampaignMerger` that stitches them and the incident
    tracker.

    Engines observe shard-local batches; verdicts and spread surface at
    :meth:`merge`, once per pump, whatever the engine count -- so a
    one-shard worker and a hub replaying its log attribute alike.  The
    engine order is part of the state: merger cursors index engines by
    position.

    Every lookup of an engine, the merger or the tracker happens at call
    time, so a caller may wrap their methods after construction.
    """

    def __init__(self, engines: Sequence[CorrelationEngine],
                 merger: GlobalCampaignMerger,
                 tracker: IncidentTracker) -> None:
        self.engines: List[CorrelationEngine] = list(engines)
        self.merger = merger
        self.tracker = tracker

    @classmethod
    def fresh(cls, num_engines: int, *, window_s: float, k: int,
              dedup_window_s: float,
              max_lateness_s: float) -> "AnalyticState":
        engines = [CorrelationEngine(
                       window_s=window_s, k=k, dedup_window_s=dedup_window_s,
                       max_lateness_s=max_lateness_s)
                   for _ in range(num_engines)]
        return cls(engines, GlobalCampaignMerger(window_s=window_s, k=k),
                   IncidentTracker())

    @classmethod
    def from_snapshot(cls, state: Dict[str, object]) -> "AnalyticState":
        """Inverse of :meth:`snapshot` (extra keys are ignored).  Raises
        :class:`ValueError` on a snapshot without a merger: one-shard
        centres once attributed without one, and their engines' flags
        cannot be turned into the merger state the next merge needs."""
        if not state["merger"]:
            raise ValueError(
                "snapshot has no campaign merger: it was written by a "
                "one-shard centre that attributed verdicts without one, "
                "and cannot be resumed by a centre that always merges")
        return cls(
            [CorrelationEngine.from_snapshot(s) for s in state["engines"]],
            GlobalCampaignMerger.from_snapshot(state["merger"]),
            IncidentTracker.from_snapshot(state["tracker"]))

    def snapshot(self) -> Dict[str, object]:
        """Canonical dump, keys in a fixed order (the canonical encoder
        does not sort them)."""
        return {
            "engines": [e.snapshot() for e in self.engines],
            "merger": self.merger.snapshot(),
            "tracker": self.tracker.snapshot(),
        }

    # ------------------------------------------------------------------
    @staticmethod
    def base_severity(detection: CampaignDetection) -> Asil:
        """A verdict's base severity: the source family its signature
        namespace names, ASIL A for a namespace no adapter uses."""
        source = source_for_signature(detection.signature)
        if source is None:
            return Asil.A
        return DEFAULT_SOURCE_SEVERITY.get(source, Asil.A)

    def observe(self, shard: int, events: Sequence[SecurityEvent]) -> None:
        """Observe one drained batch on engine ``shard``; its verdicts
        and spread wait for :meth:`merge`."""
        self.engines[shard].observe_batch(events)

    def merge(self, open_incident: OpenIncident) -> List[CampaignDetection]:
        """One pump-boundary merge: stitch the engines, adopt each new
        fleet-wide verdict back into every engine (so they track spread
        exactly from here on and never re-fire), open its incident, then
        attach newly attributed vehicles in sorted order.  Returns the
        new verdicts."""
        new_detections, new_vehicles = self.merger.merge(self.engines)
        for detection in new_detections:
            for engine in self.engines:
                engine.adopt_campaign(detection)
            open_incident(detection, self.base_severity(detection))
        attach = self.tracker.attach_vehicle
        for signature in sorted(new_vehicles):
            for vehicle in sorted(new_vehicles[signature]):
                attach(signature, vehicle)
        return new_detections

    def apply(self, shard: int, record: LogRecord,
              open_incident: OpenIncident) -> List[CampaignDetection]:
        """Replay one log record: a batch is observed on engine
        ``shard``, a pump marker re-runs the merge the live run made
        there.  Returns the fleet-wide verdicts a merge produced."""
        if record.kind == "batch":
            self.observe(shard, record.events)
            return []
        return self.merge(open_incident)

    # ------------------------------------------------------------------
    def flagged_signatures(self) -> Set[str]:
        return set(self.merger.flagged_signatures)

    def metrics(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for engine in self.engines:
            for key, value in engine.metrics().items():
                merged[key] = merged.get(key, 0.0) + value
        # Campaign count is a fleet-level fact: adopted local flags would
        # count one campaign once per shard.
        merged["campaigns_flagged"] = float(
            len(self.merger.flagged_signatures))
        return merged


class SecurityOperationsCenter:
    """An OEM fleet SOC over a simulated vehicle population.

    ``respond=False`` gives the observe-only configuration used as the
    E17 baseline: everything is ingested and correlated, but no incident
    ever reaches containment -- the fleet burns.

    Drained batches reach the analytic state (:attr:`state`) through
    batch sinks only (``observe_batch``, one call per batch).  Every
    ingest shard has its own correlator, stitched by a
    :class:`GlobalCampaignMerger` each pump.
    """

    def __init__(
        self,
        sim: Simulator,
        fleet: FleetModel,
        capacity_eps: float = 250.0,
        queue_capacity: int = 2048,
        batch_size: int = 64,
        window_s: float = 8.0,
        k: int = 3,
        dedup_window_s: float = 4.0,
        max_lateness_s: float = 2.0,
        respond: bool = True,
        num_shards: int = 1,
        store: Optional[DurableStore] = None,
        snapshot_every_pumps: int = 0,
    ) -> None:
        self.sim = sim
        self.fleet = fleet
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

        self.pipeline = IngestPipeline(
            capacity_eps=capacity_eps,
            queue_capacity=queue_capacity,
            batch_size=batch_size,
            num_shards=num_shards,
        )
        self.audit = ConservationAudit()

        # Archival taps go in *before* the correlator sinks (write-ahead:
        # by the time analytics sees a batch it is already in the log).
        if store is not None:
            for index, shard in enumerate(self.pipeline.shards):
                shard.add_batch_sink(self._archive_handler(index))

        self.state = AnalyticState.fresh(
            num_shards, window_s=window_s, k=k,
            dedup_window_s=dedup_window_s, max_lateness_s=max_lateness_s)
        for index, shard in enumerate(self.pipeline.shards):
            shard.add_batch_sink(self._observe_handler(index))

        self.responder: Optional[ResponseOrchestrator] = (
            ResponseOrchestrator(sim, fleet) if respond else None
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
            self.sim.schedule(PUMP_TICK_S, self._pump)

    def _pump(self) -> None:
        self.pipeline.pump(self.sim.now)
        self._finish_pump()
        self.sim.schedule(PUMP_TICK_S, self._pump)

    def _finish_pump(self, now: Optional[float] = None) -> None:
        """Post-dispatch bookkeeping every pump shares: audit, campaign
        merge, the durable pump marker, and the periodic snapshot.
        ``now`` defaults to simulation time; service drive mode passes
        the wall-clock handoff time instead."""
        self.audit.check(self.pipeline)
        self.state.merge(self._open_incident)
        if self.store is not None:
            self._pump_no += 1
            self.store.log.append_mark(
                self.sim.now if now is None else now, self._pump_no)
            if (self.snapshot_every_pumps
                    and self._pump_no % self.snapshot_every_pumps == 0):
                self.save_snapshot()

    @property
    def pump_no(self) -> int:
        """Pump markers written so far -- the sequence number of the last
        handoff this center sealed (0 before the first, and always 0
        without a durable store)."""
        return self._pump_no

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

    def service_pump(self, now: float,
                     pre_mark: Optional[Callable[[], None]] = None) -> int:
        """One network-service pump: drain *everything* queued at wall
        time ``now``, then run the standard post-dispatch bookkeeping
        (audit, campaign merge, durable pump marker, periodic snapshot).

        This is the drive mode a :class:`~repro.soc.service.WorkerCore`
        uses -- arrival cadence replaces the simulated capacity budget,
        so each handoff batch is dispatched whole and the pump marker
        records the handoff boundary replay must reproduce.  The marker
        is the commit point, and appending it flushes the log to the OS,
        never to the disk: a killed worker process loses nothing that
        was acknowledged (the log's own torn-tail recovery covers the
        kill landing mid-append).  Records reach the disk only at
        segment close, before every snapshot and at close.  Returns the
        number of events dispatched.

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
    # Analytic state
    # ------------------------------------------------------------------
    @property
    def correlators(self) -> List[CorrelationEngine]:
        """One correlation engine per ingest shard."""
        return self.state.engines

    @property
    def merger(self) -> GlobalCampaignMerger:
        """The merger that turns engine state into fleet-wide verdicts."""
        return self.state.merger

    @property
    def tracker(self) -> IncidentTracker:
        return self.state.tracker

    def _observe_handler(self, index: int):
        """Batch sink for ingest shard ``index``.  It looks
        :attr:`state` up on every batch, so adopting recovered state
        (:meth:`adopt_analytics`) rewires the sinks."""
        def observe(now: float, events: List[SecurityEvent]) -> None:
            self.state.observe(index, events)
        return observe

    def _archive_handler(self, index: int):
        """Batch-sink tap appending each dispatched batch to the log."""
        log = self.store.log

        def archive(now: float, events: List[SecurityEvent]) -> None:
            log.append_batch(now, index, events)
        return archive

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
        return {
            "pump_no": self._pump_no,
            "log_seq": self.store.log.last_seq if self.store else 0,
            **self.state.snapshot(),
        }

    def save_snapshot(self):
        """Persist the analytic state; the log is synced first so a
        snapshot never references records less durable than itself."""
        self.store.log.sync()
        return self.store.snapshots.save(self.analytics_snapshot())

    def adopt_analytics(self, recovered: "RecoveredAnalytics") -> None:
        """Swap recovered analytic state into this (running) center.

        The correlator sinks resolve :attr:`state` at call time, so
        adoption rewires them without touching the pipeline; the ingest
        tier (queues, counters) is not part of the recovery contract and
        keeps running as-is.  Raises :class:`ValueError`, leaving this
        center unchanged, when the recovered state has a different
        engine count than this center has ingest shards.
        """
        engines = len(recovered.state.engines)
        if engines != self.pipeline.num_shards:
            raise ValueError(
                f"recovered state has {engines} engines; this center has "
                f"{self.pipeline.num_shards} ingest shards")
        self.state = recovered.state
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

    # ------------------------------------------------------------------
    def flagged_signatures(self) -> Set[str]:
        return self.state.flagged_signatures()

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

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        out.update(self.pipeline.metrics())
        out.update(self.state.metrics())
        out.update(self.precision_recall())
        out["incidents_open"] = float(len(self.tracker.incidents))
        out["mean_time_to_containment_s"] = self.tracker.mean_time_to_containment_s()
        if self.responder is not None:
            out.update(self.responder.metrics())
        out["fleet_compromised"] = float(self.fleet.total_compromised())
        out["fleet_targets"] = float(self.fleet.total_targets())
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

    state: AnalyticState
    pump_no: int
    log_seq: int
    replayed_batches: int = 0
    replayed_events: int = 0
    replayed_pumps: int = 0

    @property
    def tracker(self) -> IncidentTracker:
        return self.state.tracker

    def flagged_signatures(self) -> Set[str]:
        return self.state.flagged_signatures()

    def analytics_snapshot(self) -> Dict[str, object]:
        """Same canonical shape as
        :meth:`SecurityOperationsCenter.analytics_snapshot`."""
        return {"pump_no": self.pump_no, "log_seq": self.log_seq,
                **self.state.snapshot()}


def recover_soc_state(store: DurableStore) -> RecoveredAnalytics:
    """Rebuild the analytic state a dead SOC process would have had.

    Loads the latest valid snapshot, then applies every log record after
    the snapshot's ``log_seq`` through :meth:`AnalyticState.apply`: batch
    records are observed on the owning shard's engine (with the exact
    batch boundaries and incident attribution of the live dispatch
    path), and each pump marker re-runs the campaign merge, reproducing
    the live pump/merge cadence.  The result is byte-identical (under
    :meth:`RecoveredAnalytics.analytics_snapshot`) to the uninterrupted
    run at the same pump boundary -- the tentpole differential in
    ``tests/test_soc_store.py``.

    A worker restart (:class:`~repro.soc.service.WorkerCore` with
    ``recover=True``) first calls
    :meth:`~repro.soc.store.EventLog.truncate_after_last_mark`, so no
    batch record survives past the last marker and the recovered state
    lands exactly on a handoff boundary: the frontend resubmits the torn
    handoff, and re-processing it re-archives the twin's exact bytes.
    """
    snap = store.snapshots.load_latest()
    if snap is None:
        raise RuntimeError(
            "no recoverable snapshot: the center writes snapshot 0 at "
            "start(), so an empty snapshot store means this DurableStore "
            "never backed a running SOC")
    state = AnalyticState.from_snapshot(snap)
    open_incident = state.tracker.open_from_detection
    pump_no = snap["pump_no"]
    last_seq = snap["log_seq"]
    batches = events_replayed = pumps = 0
    for record in store.log.replay(after_seq=snap["log_seq"]):
        last_seq = record.seq
        if record.kind == "batch":
            batches += 1
            events_replayed += len(record.events)
        else:  # pump marker: the live run merged campaigns here
            pumps += 1
            pump_no = record.pump_no
        state.apply(record.shard, record, open_incident)

    return RecoveredAnalytics(
        state=state, pump_no=pump_no, log_seq=last_seq,
        replayed_batches=batches, replayed_events=events_replayed,
        replayed_pumps=pumps)
