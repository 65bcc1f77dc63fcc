"""Tests for the repro.soc VSOC subsystem.

Covers the event adapters, bounded-queue shedding, the correlation
engine's windowing edge cases (boundary, duplicate ids, out-of-order
arrival) -- including hypothesis property tests -- the incident state
machine, the closed remediation loop, and E17 determinism.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.safety import Asil
from repro.ids.base import Alert
from repro.sim import RngStreams, Simulator
from repro.soc import (
    AttackCampaign,
    BoundedQueue,
    CampaignDetection,
    ConservationAudit,
    ConservationError,
    CorrelationEngine,
    EventSource,
    FleetModel,
    Incident,
    IncidentState,
    IncidentTracker,
    IngestPipeline,
    InvalidTransition,
    ResponseOrchestrator,
    SecurityOperationsCenter,
    from_ids_alert,
    from_misbehavior_report,
    from_uds_security_failure,
    k_for_fleet_size,
    make_event,
    poisson_draw,
)
from repro.core.policy import SecurityPolicy
from repro.ecu.firmware import FirmwareImage, FirmwareStore
from repro.ota import DirectorRepository, UptaneClient
from repro.v2x.misbehavior import MisbehaviorReport
from repro.experiments import e17_soc
from repro.soc import respond


def ev(vehicle, sig, time, seq=None, severity=Asil.B):
    """Shorthand: one actionable event with a unique id."""
    if seq is None:
        seq = ev.counter = getattr(ev, "counter", 0) + 1
    return make_event(vehicle, EventSource.IDS, sig, time, seq,
                      severity=severity)


# ----------------------------------------------------------------------
# Event model + adapters
# ----------------------------------------------------------------------
class TestEventAdapters:
    def test_ids_alert_normalization(self):
        alert = Alert(1.5, "spec", 0x0C9, "unknown id")
        event = from_ids_alert("v1", alert, seq=7)
        assert event.vehicle_id == "v1"
        assert event.source is EventSource.IDS
        assert event.signature == "ids.spec:0x0c9"
        assert event.severity is Asil.D
        assert dict(event.detail)["reason"] == "unknown id"

    def test_event_ids_deterministic_and_unique(self):
        alert = Alert(1.5, "spec", 0x0C9, "unknown id")
        a = from_ids_alert("v1", alert, seq=7)
        b = from_ids_alert("v1", alert, seq=7)
        c = from_ids_alert("v1", alert, seq=8)
        assert a.event_id == b.event_id
        assert a.event_id != c.event_id

    def test_misbehavior_report_normalization(self):
        report = MisbehaviorReport(3.0, "honest-2", "pseud-9", b"\x01",
                                   "teleport: implied 400 m/s between BSMs")
        event = from_misbehavior_report(report, seq=1)
        assert event.vehicle_id == "honest-2"   # the reporter, not the accused
        assert event.signature == "v2x.misbehavior:teleport"
        assert dict(event.detail)["accused"] == "pseud-9"

    def test_gateway_and_diag_adapters(self):
        # Gateway quarantines have no adapter: the fleet emits them
        # through make_event, at the source's default severity.
        event = make_event("v3", EventSource.GATEWAY,
                           "gateway.quarantine:infotainment", 2.0, 1)
        assert event.signature == "gateway.quarantine:infotainment"
        assert event.severity is Asil.C

        event = from_uds_security_failure("v4", 5.0, nrc=0x35, seq=2)
        assert event.signature == "diag.security_access:nrc0x35"
        assert event.severity is Asil.B

    def test_campaign_signature_matches_adapter(self):
        campaign = AttackCampaign("c0", EventSource.IDS, 0.0, ("v000001",),
                                  1.0, can_id=0x244, detector="frequency")
        emitted = campaign.emit("v000001", 1.0, seq=1)
        assert emitted.signature == campaign.signature
        # Campaign emissions are floored at ASIL B even for V2X sources.
        v2x = AttackCampaign("c1", EventSource.V2X, 0.0, ("v000001",), 1.0)
        assert v2x.emit("v000001", 1.0, seq=2).severity >= Asil.B


# ----------------------------------------------------------------------
# Ingestion
# ----------------------------------------------------------------------
class TestBoundedQueue:
    def test_lowest_severity_eviction(self):
        q = BoundedQueue(2)
        low = ev("v1", "s", 0.0, severity=Asil.A)
        high = ev("v2", "s", 0.1, severity=Asil.D)
        incoming = ev("v3", "s", 0.2, severity=Asil.C)
        q.offer(0.0, low), q.offer(0.1, high)
        assert q.offer(0.2, incoming) is low
        # ...but never evicts to admit something less severe.
        lower = ev("v4", "s", 0.3, severity=Asil.A)
        assert q.offer(0.3, lower) is lower

    def test_redelivery_into_full_queue_is_refused_and_conserved(self):
        # A redelivered object has its queued copy's severity, so a full
        # queue refuses it (it can never evict its own queued copy) and
        # the queued copy keeps its own timestamp.
        q = BoundedQueue(1)
        e = ev("v1", "s", 0.0)
        assert q.offer(0.0, e) is None
        assert q.offer(1.0, e) is e            # refused at the door
        assert (len(q), q.offered, q.accepted, q.evicted, q.shed) == (
            1, 2, 1, 0, 1)
        assert q.offered == q.accepted + q.shed
        assert len(q) == q.accepted - q.drained - q.evicted
        assert q.drain(10) == [(0.0, e)]
        pipe = IngestPipeline(queue_capacity=1)
        assert pipe.offer(0.0, e) and not pipe.offer(1.0, e)
        ConservationAudit().check(pipe)

    def test_full_queue_refuses_equal_severity_arrival(self):
        q = BoundedQueue(2)
        e1, e2, e3 = (ev("v1", "s", 0.0), ev("v2", "s", 0.1), ev("v3", "s", 0.2))
        assert q.offer(0.0, e1) is None and q.offer(0.1, e2) is None
        assert q.offer(0.2, e3) is e3
        assert q.shed == 1 and q.evicted == 0
        assert [e.vehicle_id for _, e in q.drain(10)] == ["v1", "v2"]

    def test_drain_is_severity_then_fifo(self):
        q = BoundedQueue(8)
        a1 = ev("v1", "s", 0.0, severity=Asil.A)
        d1 = ev("v2", "s", 0.1, severity=Asil.D)
        a2 = ev("v3", "s", 0.2, severity=Asil.A)
        for e in (a1, d1, a2):
            q.offer(e.time, e)
        assert q.drain(10) == [(0.1, d1), (0.0, a1), (0.2, a2)]


class TestIngestPipeline:
    def test_rejects_invalid_and_future_events(self):
        pipe = IngestPipeline()
        assert not pipe.offer(1.0, ev("v1", "s", 5.0))      # from the future
        assert not pipe.offer(1.0, ev("", "s", 0.5))        # no vehicle
        # Non-finite times: NaN fails both halves of a "< 0 or > now"
        # test, so it must be refused by a range check, not two compares.
        for bad in (float("nan"), float("inf"), float("-inf")):
            assert not pipe.offer(1.0, ev("v1", "s", bad))
        assert pipe.metrics()["rejected_invalid"] == 5
        ConservationAudit().check(pipe)

    def test_capacity_budget_limits_dispatch(self):
        pipe = IngestPipeline(capacity_eps=10.0, batch_size=4)
        for i in range(30):
            assert pipe.offer(0.0, ev(f"v{i}", "s", 0.0))
        pipe.pump(0.0)                       # first pump: one batch allowance
        assert pipe.pump(1.0) == 10          # then capacity_eps * dt
        metrics = pipe.metrics()
        assert metrics["dispatched"] == pipe.shards[0].dispatched

    def test_sheds_when_full_and_reports_rate(self):
        pipe = IngestPipeline(capacity_eps=1.0, queue_capacity=8)
        for i in range(20):
            pipe.offer(0.0, ev(f"v{i}", "s", 0.0))
        assert len(pipe.shards[0].queue) == 8
        assert pipe.shards[0].queue.shed == 12
        assert pipe.shed_rate == pytest.approx(12 / 20)
        assert pipe.congested

    def test_first_pump_budget_quirk_pinned(self):
        # Regression pin for the intended first-pump quirk: a cold
        # backend has no elapsed-time reference, so the first pump always
        # grants exactly batch_size -- never capacity_eps * now.  With N
        # shards the grant is one cold batch per worker (pinned in
        # tests/test_soc_shard.py); this is its N=1 case.
        pipe = IngestPipeline(capacity_eps=1000.0, batch_size=8)
        for i in range(50):
            assert pipe.offer(0.0, ev(f"v{i}", "s", 0.0))
        assert pipe.pump(5.0) == 8       # one batch, not 5000
        assert pipe.pump(5.0) == 0       # zero elapsed => zero budget
        assert pipe.pump(6.0) == 42      # then capacity_eps * dt applies

    def test_sink_sees_events_with_latency_accounted(self):
        pipe = IngestPipeline(capacity_eps=100.0)
        seen = []
        pipe.shards[0].add_batch_sink(
            lambda now, batch: seen.extend((now, e.vehicle_id) for e in batch))
        pipe.offer(0.0, ev("v1", "s", 0.0))
        pipe.pump(2.0)
        assert seen == [(2.0, "v1")]
        assert pipe.shards[0].latency_max_s == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Ingest accounting: pinned regressions
# ----------------------------------------------------------------------
class TestIngestAccountingRegressions:
    """Each test pins one of the accounting bugfixes: the published
    admit identity, the enqueue-time clobbering under at-least-once
    redelivery, and the single-pump ``final_drain``."""

    def test_audit_catches_metrics_underreporting(self):
        # The audit must prove the *published* admit identity, not just
        # the internal counters: a pipeline whose metrics drop the
        # invalid rejections fails the check.
        class Lying(IngestPipeline):
            def metrics(self):
                m = super().metrics()
                m["rejected_invalid"] = 0.0
                return m

        pipe = Lying()
        pipe.offer(1.0, ev("", "s", 0.5))                   # invalid
        with pytest.raises(ConservationError):
            ConservationAudit().check(pipe)

    def test_redelivered_queued_event_keeps_both_latencies(self):
        # At-least-once transports redeliver an event while a copy is
        # still queued.  Keying enqueue times by bare event_id let the
        # second arrival clobber the first copy's timestamp.
        pipe = IngestPipeline(capacity_eps=100.0)
        event = ev("v1", "s", 0.0)
        assert pipe.offer(0.0, event)
        assert pipe.offer(1.0, event)          # redelivery, still queued
        assert pipe.dispatch(2.0, 2) == 2
        dispatch = pipe.shards[0]
        assert dispatch.latency_sum_s == pytest.approx(3.0)   # 2.0 + 1.0
        assert dispatch.latency_max_s == pytest.approx(2.0)
        assert pipe.metrics()["mean_dispatch_latency_s"] == pytest.approx(1.5)
        # Nothing of either copy lingers: a later copy of the same id
        # reports only its own wait.
        assert pipe.offer(5.0, event)
        assert pipe.dispatch(5.5, 2) == 1
        assert dispatch.latency_sum_s == pytest.approx(3.5)   # + 0.5
        assert dispatch.latency_max_s == pytest.approx(2.0)
        assert pipe.metrics()["mean_dispatch_latency_s"] == pytest.approx(
            3.5 / 3)

    def test_eviction_forgets_oldest_copy_timestamp(self):
        pipe = IngestPipeline(queue_capacity=2, capacity_eps=100.0)
        event = ev("v1", "s", 0.0)
        assert pipe.offer(0.0, event)
        assert pipe.offer(1.0, event)
        # A more severe arrival evicts the oldest copy.
        assert pipe.offer(2.0, ev("v2", "s", 1.5, severity=Asil.D))
        assert pipe.dispatch(3.0, 2) == 2
        # Survivors: the t=1.0 copy (waited 2.0) and v2 (waited 1.0).
        assert pipe.shards[0].latency_sum_s == pytest.approx(3.0)

    def test_refused_arrival_does_not_steal_queued_timestamp(self):
        pipe = IngestPipeline(queue_capacity=1, capacity_eps=100.0)
        event = ev("v1", "s", 0.0)
        assert pipe.offer(0.0, event)
        # An equal-severity redelivery is refused at the door.
        assert not pipe.offer(1.0, event)
        assert pipe.dispatch(2.0, 1) == 1
        assert pipe.shards[0].latency_sum_s == pytest.approx(2.0)

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_final_drain_empties_deep_backlog(self, num_shards):
        # A backlog deeper than one pump's budget used to survive
        # final_drain (it ran exactly one rate-limited pump), leaving
        # accepted events unscored and the conservation ledger open.
        sim = Simulator()
        fleet = FleetModel(50, [])
        soc = SecurityOperationsCenter(sim, fleet, capacity_eps=4.0,
                                       respond=False, num_shards=num_shards)
        soc.start()
        for i in range(500):
            assert soc.pipeline.offer(0.0, ev(f"v{i % 50}", f"sig.{i % 7}",
                                              0.0))
        sim.run_until(1.0)
        assert soc.pipeline.queue_depth > 0    # genuinely congested
        soc.final_drain()
        assert soc.pipeline.queue_depth == 0
        m = soc.metrics()
        assert m["dispatched"] == m["admitted"] - m["queued_shed"]
        assert m["audit_checks"] > 0           # every round stayed audited


# ----------------------------------------------------------------------
# Correlation: unit edge cases
# ----------------------------------------------------------------------
class TestCorrelationEngine:
    def test_detects_at_exactly_k_distinct_vehicles(self):
        eng = CorrelationEngine(window_s=10.0, k=3)
        assert eng.observe(ev("v1", "x", 1.0)) is None
        assert eng.observe(ev("v2", "x", 2.0)) is None
        det = eng.observe(ev("v3", "x", 3.0))
        assert isinstance(det, CampaignDetection)
        assert det.vehicles == ("v1", "v2", "v3")
        assert det.first_time == 1.0 and det.detect_time == 3.0

    def test_window_boundary_is_closed(self):
        # Exactly window_s apart still co-occurs...
        eng = CorrelationEngine(window_s=5.0, k=2, max_lateness_s=10.0)
        eng.observe(ev("v1", "x", 0.0))
        assert eng.observe(ev("v2", "x", 5.0)) is not None
        # ...but epsilon beyond does not.
        eng = CorrelationEngine(window_s=5.0, k=2, max_lateness_s=10.0)
        eng.observe(ev("v1", "y", 0.0))
        assert eng.observe(ev("v2", "y", 5.0 + 1e-6)) is None

    def test_duplicate_event_ids_never_double_count(self):
        eng = CorrelationEngine(window_s=10.0, k=2)
        event = ev("v1", "x", 1.0)
        assert eng.observe(event) is None
        assert eng.observe(event) is None           # redelivery
        assert eng.duplicate_ids == 1
        # A second *vehicle* still completes the campaign.
        assert eng.observe(ev("v2", "x", 2.0)) is not None

    def test_per_vehicle_dedup_blocks_single_noisy_vehicle(self):
        eng = CorrelationEngine(window_s=60.0, k=2, dedup_window_s=30.0)
        for seq in range(10):
            det = eng.observe(make_event("v1", EventSource.IDS, "x",
                                         float(seq), seq, severity=Asil.B))
            assert det is None
        assert eng.deduped == 9

    def test_out_of_order_within_lateness_correlates(self):
        eng = CorrelationEngine(window_s=10.0, k=2, max_lateness_s=5.0)
        eng.observe(ev("v1", "x", 8.0))
        det = eng.observe(ev("v2", "x", 6.0))       # late but within bound
        assert det is not None

    def test_older_than_lateness_dropped(self):
        eng = CorrelationEngine(window_s=100.0, k=2, max_lateness_s=2.0)
        eng.observe(ev("v1", "x", 50.0))
        assert eng.observe(ev("v2", "x", 40.0)) is None
        assert eng.late_dropped == 1

    def test_low_severity_never_seeds_campaign(self):
        eng = CorrelationEngine(window_s=10.0, k=2, min_severity=Asil.B)
        eng.observe(ev("v1", "x", 1.0, severity=Asil.A))
        assert eng.observe(ev("v2", "x", 2.0, severity=Asil.A)) is None
        assert eng.low_severity_ignored == 2

    def test_flagged_signature_fires_once_then_tracks_spread(self):
        eng = CorrelationEngine(window_s=10.0, k=2)
        eng.observe(ev("v1", "x", 1.0))
        assert eng.observe(ev("v2", "x", 2.0)) is not None
        assert eng.observe(ev("v3", "x", 3.0)) is None
        assert eng.campaign_vehicles("x") == {"v1", "v2", "v3"}
        assert len(eng.detections) == 1


# ----------------------------------------------------------------------
# Correlation: property tests
# ----------------------------------------------------------------------
EVENT_STREAM = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),                 # vehicle
        st.sampled_from(["sigA", "sigB"]),                     # signature
        st.floats(min_value=0.0, max_value=30.0,
                  allow_nan=False, allow_infinity=False),      # time
    ),
    min_size=0, max_size=60,
)


class TestCorrelationProperties:
    @given(EVENT_STREAM)
    @settings(max_examples=60, deadline=None)
    def test_detection_implies_k_distinct_vehicles_within_window(self, rows):
        eng = CorrelationEngine(window_s=5.0, k=3, dedup_window_s=0.0,
                                max_lateness_s=100.0)
        for seq, (vehicle, sig, time) in enumerate(rows):
            det = eng.observe(make_event(f"v{vehicle}", EventSource.IDS, sig,
                                         time, seq, severity=Asil.B))
            if det is not None:
                assert len(set(det.vehicles)) >= 3
                assert det.detect_time - det.first_time <= 5.0 + 1e-9

    @given(EVENT_STREAM)
    @settings(max_examples=60, deadline=None)
    def test_redelivered_stream_changes_nothing(self, rows):
        events = [
            make_event(f"v{vehicle}", EventSource.IDS, sig, time, seq,
                       severity=Asil.B)
            for seq, (vehicle, sig, time) in enumerate(rows)
        ]
        eng = CorrelationEngine(window_s=5.0, k=3, dedup_window_s=0.0,
                                max_lateness_s=100.0)
        for event in events:
            eng.observe(event)
        detections = list(eng.detections)
        for event in events:                       # full at-least-once replay
            assert eng.observe(event) is None
        assert eng.detections == detections
        assert eng.duplicate_ids == len(events)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
                 min_size=3, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_k_distinct_vehicles_inside_window_always_detected(self, times):
        # Distinct vehicles, all strictly inside one window: must flag.
        eng = CorrelationEngine(window_s=5.0, k=3, dedup_window_s=10.0,
                                max_lateness_s=100.0)
        fired = False
        for seq, time in enumerate(times):
            det = eng.observe(make_event(f"v{seq}", EventSource.IDS, "x",
                                         time, seq, severity=Asil.B))
            fired = fired or det is not None
        assert fired


# ----------------------------------------------------------------------
# Incident lifecycle
# ----------------------------------------------------------------------
class TestIncidentLifecycle:
    def _detection(self, sig="x", spread=3):
        return CampaignDetection(sig, 10.0, 8.0,
                                 tuple(f"v{i}" for i in range(spread)), 8.0, 3)

    def test_happy_path_and_latency_accounting(self):
        incident = Incident("INC-1", "x", 10.0, Asil.C)
        incident.advance(11.0, IncidentState.TRIAGED)
        incident.advance(12.5, IncidentState.CONTAINED)
        incident.advance(20.0, IncidentState.REMEDIATED)
        assert incident.time_to_containment_s == pytest.approx(2.5)
        assert incident.time_to_remediation_s == pytest.approx(10.0)
        assert incident.closed

    def test_invalid_transitions_raise(self):
        incident = Incident("INC-1", "x", 10.0, Asil.C)
        with pytest.raises(InvalidTransition):
            incident.advance(11.0, IncidentState.CONTAINED)  # skips triage
        incident.advance(11.0, IncidentState.FALSE_POSITIVE)
        with pytest.raises(InvalidTransition):
            incident.advance(12.0, IncidentState.TRIAGED)    # FP is terminal

    def test_severity_escalates_with_spread(self):
        tracker = IncidentTracker(escalation_spread=4)
        small = tracker.open_from_detection(self._detection("a", 3), Asil.B)
        assert small.severity is Asil.B
        large = tracker.open_from_detection(self._detection("b", 5), Asil.B)
        assert large.severity is Asil.C
        # Spread growth after opening can bump severity too.
        for i in range(10):
            tracker.attach_vehicle("a", f"w{i}")
        assert small.severity is Asil.C

    def test_reopening_same_signature_returns_same_incident(self):
        tracker = IncidentTracker()
        first = tracker.open_from_detection(self._detection())
        second = tracker.open_from_detection(self._detection())
        assert first is second


# ----------------------------------------------------------------------
# Closed-loop response
# ----------------------------------------------------------------------
class TestResponseLoop:
    def test_policy_push_is_authenticated_and_versioned(self):
        sim = Simulator()
        campaign = AttackCampaign("c0", EventSource.IDS, 0.0,
                                  tuple(FleetModel.vehicle_id(i) for i in range(10)),
                                  5.0)
        fleet = FleetModel(10, [campaign])
        tracker = IncidentTracker()
        orchestrator = ResponseOrchestrator(sim, fleet)
        detection = CampaignDetection(campaign.signature, 1.0, 0.5,
                                      ("v000000", "v000001", "v000002"), 8.0, 3)
        incident = tracker.open_from_detection(detection, Asil.D)
        orchestrator.on_detection(incident)
        sim.run()

        assert incident.state is IncidentState.REMEDIATED
        # The vehicle-side engine verified a CMAC'd bundle and bumped.
        assert orchestrator.vehicle_engine.policy.version == 2
        assert orchestrator.vehicle_engine.update_history == [1, 2]
        assert not orchestrator.vehicle_engine.allows(
            "anyone", campaign.signature, "anything")
        # Spread stopped, patch rolled, outcome scored.
        assert campaign.signature in fleet.contained_at
        outcome = orchestrator.outcomes[0]
        assert outcome.vehicles_patched == 10
        assert outcome.ota_verified_sample == 1
        assert outcome.blast_radius + outcome.blast_radius_averted == 10
        assert outcome.detection_to_remediation_s > \
            outcome.detection_to_containment_s > 0

    def test_tampered_policy_push_is_rejected(self):
        # The §7 centralized-policy path fails closed: a bit-flipped
        # bundle never reaches the vehicle-side engine's policy.
        sim = Simulator()
        fleet = FleetModel(5, [])
        orchestrator = ResponseOrchestrator(sim, fleet)
        current = orchestrator.oem_engine.policy
        candidate = SecurityPolicy(version=current.version + 1,
                                   rules=list(current.rules),
                                   default=current.default)
        blob, tag = orchestrator.oem_engine.export_update(
            candidate, b"soc-policy-key!!")
        tampered = bytes([blob[0] ^ 0x01]) + blob[1:]
        with pytest.raises(PermissionError):
            orchestrator.vehicle_engine.apply_update(tampered, tag)
        # A forged tag fails the same way; version never moved.
        with pytest.raises(PermissionError):
            orchestrator.vehicle_engine.apply_update(blob, b"\x00" * len(tag))
        assert orchestrator.vehicle_engine.policy.version == 1
        assert orchestrator.vehicle_engine.update_history == [1]
        # The untampered bundle still applies -- the key is fine, the
        # rejection above was the integrity check.
        orchestrator.vehicle_engine.apply_update(blob, tag)
        assert orchestrator.vehicle_engine.policy.version == 2

    def test_ota_campaign_aborts_on_uptane_verification_failure(
            self, monkeypatch):
        # A sample (canary) vehicle pinned to the wrong director root
        # fails full Uptane metadata verification; the campaign must
        # abort -- counting the failure, installing nothing further.
        class WrongRootOrchestrator(ResponseOrchestrator):
            def _make_vehicle_client(self, vehicle_id):
                if vehicle_id == "v000000":     # first canary
                    rogue = DirectorRepository(seed=b"rogue/director")
                    store = FirmwareStore(FirmwareImage(
                        "soc-patch", 1, b"factory", hardware_id="soc-ecu"))
                    return UptaneClient(
                        vehicle_id, store,
                        image_root=self._image_repo.metadata["root"],
                        director_root=rogue.metadata["root"])
                return super()._make_vehicle_client(vehicle_id)

        sim = Simulator()
        campaign = AttackCampaign(
            "c0", EventSource.IDS, 0.0,
            tuple(FleetModel.vehicle_id(i) for i in range(10)), 5.0)
        fleet = FleetModel(10, [campaign])
        tracker = IncidentTracker()
        monkeypatch.setattr(respond, "OTA_SAMPLE", 3)
        orchestrator = WrongRootOrchestrator(sim, fleet)
        detection = CampaignDetection(campaign.signature, 1.0, 0.5,
                                      ("v000000", "v000001", "v000002"),
                                      8.0, 3)
        incident = tracker.open_from_detection(detection, Asil.D)
        orchestrator.on_detection(incident)
        sim.run()

        # Containment still happened (policy push is independent), but
        # the rollout stopped at the failing canary: 0 installs, 1
        # counted failure, remaining sample untouched.
        assert incident.state is IncidentState.REMEDIATED
        assert campaign.signature in fleet.contained_at
        assert orchestrator.ota_results == {"installed": 0, "failed": 1}
        outcome = orchestrator.outcomes[0]
        assert outcome.ota_verified_sample == 0
        metrics = orchestrator.metrics()
        assert metrics["ota_installs"] == 0
        assert metrics["ota_failures"] == 1

    def test_containment_halts_spread(self):
        campaign = AttackCampaign("c0", EventSource.IDS, 0.0,
                                  tuple(FleetModel.vehicle_id(i) for i in range(20)),
                                  1000.0)
        fleet = FleetModel(20, [campaign])
        rng = RngStreams(1).get("t")
        fleet.step(1.0, 0.005, rng)
        compromised = fleet.blast_radius(campaign.signature)
        assert 0 < compromised < 20
        fleet.contain(campaign.signature, 1.0)
        fleet.step(2.0, 10.0, rng)
        assert fleet.blast_radius(campaign.signature) == compromised


# ----------------------------------------------------------------------
# E17 determinism + workload plumbing
# ----------------------------------------------------------------------
SMALL_GRID = [(300, 0.03)]


class TestE17:
    def test_same_seed_identical_summary(self):
        a = e17_soc.summary(seed=5, grid=SMALL_GRID, duration_s=15.0)
        b = e17_soc.summary(seed=5, grid=SMALL_GRID, duration_s=15.0)
        assert a == b

    def test_different_seed_differs(self):
        a = e17_soc.summary(seed=5, grid=SMALL_GRID, duration_s=15.0)
        b = e17_soc.summary(seed=6, grid=SMALL_GRID, duration_s=15.0)
        assert a != b

    def test_small_fleet_scene_closes_the_loop(self):
        metrics = e17_soc._scene(300, 0.03, seed=2, respond=True,
                                 duration_s=25.0)
        assert metrics["recall"] == 1.0
        assert metrics["precision"] >= 0.9
        assert metrics["policy_pushes"] >= 3
        assert metrics["audit_checks"] > 0   # conservation held every pump
        baseline = e17_soc._scene(300, 0.03, seed=2, respond=False,
                                  duration_s=25.0)
        assert metrics["fleet_compromised"] <= baseline["fleet_compromised"]

    def test_poisson_draw_moments(self):
        rng = RngStreams(0).get("p")
        for lam in (0.5, 8.0, 200.0):
            draws = [poisson_draw(rng, lam) for _ in range(400)]
            mean = sum(draws) / len(draws)
            assert lam * 0.8 < mean < lam * 1.2

    def test_soc_metrics_shape(self):
        sim = Simulator()
        fleet = FleetModel(10, [])
        soc = SecurityOperationsCenter(sim, fleet, respond=True)
        metrics = soc.metrics()
        for key in ("offered", "shed_rate", "precision", "recall",
                    "policy_pushes", "blast_radius_averted"):
            assert key in metrics


# ----------------------------------------------------------------------
# Fleet-scaled k: precision at 10^8
# ----------------------------------------------------------------------
class TestKForFleetSize:
    def test_one_extra_vehicle_per_decade(self):
        assert k_for_fleet_size(100) == 3
        assert k_for_fleet_size(1_000_000) == 3
        assert k_for_fleet_size(3_000_000) == 3    # geometric midpoint holds
        assert k_for_fleet_size(10_000_000) == 4
        assert k_for_fleet_size(100_000_000) == 5
        assert k_for_fleet_size(1_000_000_000) == 6
        assert k_for_fleet_size(10_000, base_k=2, base_fleet=1_000) == 3

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            k_for_fleet_size(0)

    def test_cell_config_applies_scaled_k(self):
        assert e17_soc._cell_config(300, 250.0)["k"] == 3
        assert e17_soc._cell_config(10_000_000, 250.0)["k"] == 4
        assert e17_soc._cell_config(100_000_000, 250.0)["k"] == 5

    def test_giga_precision_regression(self):
        """The XL regression the ROADMAP item asked for: at 10^8
        vehicles, benign chance co-occurrence crosses k=3 (precision was
        0.6); the log-scaled k=5 restores precision >= 0.9 without
        losing a single planted campaign (recall 1.0)."""
        config = e17_soc._cell_config(100_000_000, 250.0)
        assert config["k"] == 5
        metrics = e17_soc._scene(100_000_000, 0.00002, seed=0, respond=True,
                                 duration_s=10.0, **config)
        assert metrics["recall"] == 1.0
        assert metrics["precision"] >= 0.9
        # Same cell at the old fixed threshold shows the failure this
        # fix exists for -- benign signatures flagged as campaigns.
        old = dict(config, k=3)
        degraded = e17_soc._scene(100_000_000, 0.00002, seed=0, respond=True,
                                  duration_s=10.0, **old)
        assert degraded["recall"] == 1.0
        assert degraded["precision"] < 0.9
