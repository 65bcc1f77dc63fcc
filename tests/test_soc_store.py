"""Tests for repro.soc.store and the crash-recovery contract.

Covers the canonical event codec (hypothesis byte-identity), the
segmented log's append/replay/rotation paths, torn-write recovery
(hypothesis: truncate anywhere, recover to the last whole record),
forensics scans checked against a brute-force oracle (plus the
sparse-index skip accounting), snapshot retention/corruption fallback,
the engine/merger/tracker snapshot round trips, and the tentpole
differential: kill-at-arbitrary-pump + restore + replay is
byte-identical to an uninterrupted run at 1 and 4 shards.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.safety import Asil
from repro.sim import RngStreams, Simulator
from repro.soc import (
    CorrelationEngine,
    CorruptRecord,
    DurableStore,
    EventLog,
    EventSource,
    FleetModel,
    FleetWorkloadGenerator,
    GlobalCampaignMerger,
    IncidentState,
    IncidentTracker,
    SecurityEvent,
    SecurityOperationsCenter,
    Shipment,
    SnapshotStore,
    decode_event,
    encode_event,
    encode_shipment,
    make_event,
    recover_soc_state,
    seeded_campaigns,
)
from repro.soc.events import event_from_obj
from repro.soc.service import encode_batch
from repro.soc.store import (
    FRAME_HEADER,
    SEGMENT_MAGIC,
    canonical_dumps,
    record_payload,
)


def ev(vehicle, sig, time, seq, severity=Asil.B):
    return make_event(vehicle, EventSource.IDS, sig, time, seq,
                      severity=severity)


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**53, max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=16),
)


#: Any JSON value, and the types each event-array field accepts.
_json_values = st.one_of(
    _json_scalars,
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_FIELD_TYPES = ((str,), (int, float), (str,), (str,), (str,), (int,), (list,))


@st.composite
def security_events(draw):
    return SecurityEvent(
        event_id=draw(st.text(min_size=1, max_size=32)),
        time=draw(st.floats(min_value=0.0, max_value=1e9,
                            allow_nan=False, allow_infinity=False)),
        vehicle_id=draw(st.text(min_size=1, max_size=12)),
        source=draw(st.sampled_from(list(EventSource))),
        signature=draw(st.text(min_size=1, max_size=24)),
        severity=draw(st.sampled_from(list(Asil))),
        detail=tuple(draw(st.lists(
            st.tuples(st.text(max_size=8), _json_scalars), max_size=4))),
    )


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
class TestEventCodec:
    @given(security_events())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_byte_identical(self, event):
        wire = encode_event(event)
        decoded = decode_event(wire)
        assert decoded == event
        # Canonical: re-encoding the decoded event reproduces the bytes.
        assert encode_event(decoded) == wire

    def test_nan_time_rejected(self):
        event = ev("v1", "sig", 1.0, 1)
        for t in (float("nan"), float("inf"), float("-inf")):
            bad = SecurityEvent(
                event_id=event.event_id, time=t,
                vehicle_id=event.vehicle_id, source=event.source,
                signature=event.signature, severity=event.severity,
                detail=event.detail)
            with pytest.raises(ValueError):
                encode_event(bad)
            # ...and the decoder refuses a non-finite time on the way in.
            with pytest.raises(CorruptRecord):
                event_from_obj(json.loads(json.dumps(list(bad))))

    @given(security_events(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_decoder_rejects_each_wrong_typed_field(self, event, data):
        obj = json.loads(encode_event(event))
        decoded = event_from_obj(obj)
        # Tuples compare equal to plain tuples and "ids" == IDS, so pin
        # the decoded types as well as the value.
        assert decoded == event and type(decoded) is SecurityEvent
        assert decoded.source is event.source
        assert decoded.severity is event.severity
        field = data.draw(st.integers(min_value=0, max_value=6))
        allowed = _FIELD_TYPES[field]
        obj[field] = data.draw(_json_values.filter(
            lambda v: type(v) not in allowed))
        with pytest.raises(CorruptRecord):
            event_from_obj(obj)


# ----------------------------------------------------------------------
# Golden bytes: the codec's output is pinned, not just self-consistent
# ----------------------------------------------------------------------
def _golden_events():
    return [
        make_event("v001", EventSource.IDS, "ids.spec:0x0c9", 0.5, 1),
        make_event("v002", EventSource.GATEWAY, "gateway.quarantine:body",
                   1.25, 2, detail={"domain": "body", "count": 3}),
        make_event("v003", EventSource.DIAG, "diag.security_access:nrc0x35",
                   2.0, 3, severity=Asil.D,
                   detail={"nrc": 53, "target_ecu": "bcm"}),
        make_event("v\u00e9h", EventSource.V2X, "v2x.misbehavior:teleport",
                   3.0625, 4, severity=Asil.QM,
                   detail={"accused": None, "ok": True, "score": -0.1}),
        make_event("v005", EventSource.IDS, "ids.frequency:0x244", 1e-07, 5,
                   severity=Asil.C,
                   detail={"reason": "burst \u2713", "big": 2 ** 53}),
    ]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


class TestGoldenBytes:
    """SHA-256 digests recorded from the codec before events became
    tuples: wire batch, on-disk segment, record payloads, a federation
    shipment, and a sharded centre's analytics snapshot and log."""

    def test_codec_bytes_match_recorded_digests(self, tmp_path):
        events = _golden_events()
        assert _sha(encode_batch(7, events)) == (
            "e1019c7aed547e5169b38c1116f104d7092e1e9c1ccc68f14cc6a02d89df9562")
        log = EventLog(tmp_path / "log")
        log.append_batch(0.25, 0, events[:3])
        log.append_mark(0.25, 1)
        log.append_batch(0.5, 1, events[3:])
        records = list(log.replay())
        log.close()
        assert [e for r in records for e in r.events] == events
        assert _sha(log.segment_paths()[0].read_bytes()) == (
            "5068ae4ee3c26b4be8942b95fdd33b9ea1e3fcdd6509403393311d6428de346c")
        assert _sha(b"".join(record_payload(r) for r in records)) == (
            "df78c3a7509b0632d902b1bbf25edf7ef0ed33ea27052d41e0b0f1c8b8421ead")
        shipment = Shipment("r1", 1, 3, records[-1].dispatch_t, tuple(records))
        assert _sha(encode_shipment(shipment)) == (
            "868f2b7c0a1a16a098ac44fbf2e0e3958ae1175583fc30ca8bf9344a720e6aa6")

    def test_analytics_snapshot_and_log_match_recorded_digests(
            self, tmp_path):
        sim = Simulator()
        rng = RngStreams(11)
        fleet = FleetModel(300, seeded_campaigns(rng, 300, 0.05))
        soc = SecurityOperationsCenter(
            sim, fleet, capacity_eps=120.0, k=3, respond=False,
            num_shards=2, store=DurableStore(tmp_path))
        FleetWorkloadGenerator(sim, rng, fleet, soc.pipeline).start()
        soc.start()
        sim.run_until(6.0)
        assert soc.metrics()["dispatched"] > 0
        assert _sha(canonical_dumps(soc.analytics_snapshot())) == (
            "a09a3b73e6bc5649a132c3e6a57f2537347fad31e58725668fd97c252f6b1c3d")
        soc.store.close()
        assert _sha(b"".join(p.read_bytes()
                             for p in soc.store.log.segment_paths())) == (
            "863bf03bd3c855a28316a3dd135a1012de4c17924c038dc0a66435ec78873bd8")


# ----------------------------------------------------------------------
# Log append / replay / rotation
# ----------------------------------------------------------------------
class TestEventLog:
    def test_append_replay_preserves_order_and_kinds(self, tmp_path):
        log = EventLog(tmp_path, segment_max_records=4)
        events = [ev("v%d" % i, "sig.a", float(i), i) for i in range(10)]
        log.append_batch(0.25, 0, events[:3])
        log.append_mark(0.25, 1)
        log.append_batch(0.5, 1, events[3:7])
        log.append_batch(0.5, 0, events[7:])
        log.append_mark(0.5, 2)
        records = list(log.replay())
        assert [r.kind for r in records] == [
            "batch", "mark", "batch", "batch", "mark"]
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]
        assert [r.shard for r in records if r.kind == "batch"] == [0, 1, 0]
        replayed = [e for r in records for e in r.events]
        assert replayed == events
        assert [r.pump_no for r in records if r.kind == "mark"] == [1, 2]
        # 5 records over segment_max_records=4 -> one rotation happened.
        assert log.segments_rotated == 1
        assert len(log.segment_paths()) == 2
        # Replay of a suffix.
        assert [r.seq for r in log.replay(after_seq=3)] == [4, 5]
        log.close()

    def test_rotation_writes_sidecar_index(self, tmp_path):
        log = EventLog(tmp_path, segment_max_records=2, index_every=1)
        for i in range(5):
            log.append(float(i), 0, ev("v1", "s", float(i), i))
        log.close()
        segments = log.segment_paths()
        assert len(segments) == 3
        for closed in segments[:-1]:
            sidecar = closed.with_suffix(".idx.json")
            assert sidecar.exists()
            idx = json.loads(sidecar.read_text())
            assert idx["count"] == 2
            assert idx["min_t"] is not None

    def test_reopen_resumes_sequence(self, tmp_path):
        log = EventLog(tmp_path, segment_max_records=3)
        for i in range(4):
            log.append(float(i), 0, ev("v1", "s", float(i), i))
        log.close()
        reopened = EventLog(tmp_path, segment_max_records=3)
        assert reopened.last_seq == 4
        assert reopened.truncated_bytes == 0
        reopened.append(9.0, 0, ev("v9", "s", 9.0, 99))
        assert [r.seq for r in reopened.replay()] == [1, 2, 3, 4, 5]
        reopened.close()

    def test_fsync_policies_accepted_and_validated(self, tmp_path):
        for policy in ("never", "rotate", "always"):
            log = EventLog(tmp_path / policy, fsync=policy)
            log.append(0.0, 0, ev("v1", "s", 0.0, 1))
            log.sync()
            log.close()
            assert EventLog(tmp_path / policy).last_seq == 1
        with pytest.raises(ValueError):
            EventLog(tmp_path / "bad", fsync="sometimes")
        with pytest.raises(ValueError):
            EventLog(tmp_path / "bad", segment_max_records=0)
        with pytest.raises(ValueError):
            EventLog(tmp_path / "bad", index_every=0)

    def test_corrupt_closed_segment_raises(self, tmp_path):
        log = EventLog(tmp_path, segment_max_records=2)
        for i in range(4):
            log.append(float(i), 0, ev("v1", "s", float(i), i))
        log.close()
        closed = log.segment_paths()[0]
        blob = bytearray(closed.read_bytes())
        blob[len(SEGMENT_MAGIC) + FRAME_HEADER.size + 2] ^= 0xFF  # flip a payload byte
        closed.write_bytes(bytes(blob))
        reopened = EventLog(tmp_path, segment_max_records=2)
        with pytest.raises(CorruptRecord):
            list(reopened.replay())
        reopened.close()


class TestTornWriteRecovery:
    @staticmethod
    def _record_boundaries(blob):
        """Byte offsets at which each whole record ends."""
        ends = []
        offset = len(SEGMENT_MAGIC)
        while offset < len(blob):
            length, _ = FRAME_HEADER.unpack(blob[offset:offset + FRAME_HEADER.size])
            offset += FRAME_HEADER.size + length
            ends.append(offset)
        return ends

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_truncate_anywhere_recovers_last_whole_record(
            self, tmp_path_factory, data):
        tmp_path = tmp_path_factory.mktemp("torn")
        n = data.draw(st.integers(min_value=1, max_value=8), label="n")
        log = EventLog(tmp_path)
        for i in range(n):
            log.append(float(i), 0, ev("v%d" % i, "sig", float(i), i))
        log.close()
        (segment,) = log.segment_paths()
        blob = segment.read_bytes()
        ends = self._record_boundaries(blob)
        cut = data.draw(st.integers(min_value=len(SEGMENT_MAGIC),
                                    max_value=len(blob) - 1), label="cut")
        segment.write_bytes(blob[:cut])

        recovered = EventLog(tmp_path)
        whole = sum(1 for end in ends if end <= cut)
        assert recovered.last_seq == whole
        assert recovered.truncated_bytes == cut - (
            ends[whole - 1] if whole else len(SEGMENT_MAGIC))
        assert len(list(recovered.replay())) == whole
        # The log is immediately appendable again.
        recovered.append(99.0, 0, ev("vx", "sig", 99.0, 999))
        assert [r.seq for r in recovered.replay()][-1] == whole + 1
        recovered.close()

    def test_torn_segment_creation_is_rewritten(self, tmp_path):
        log = EventLog(tmp_path)
        log.append(0.0, 0, ev("v1", "s", 0.0, 1))
        log.close()
        # A crash between creating the next segment file and writing its
        # magic leaves garbage; recovery must rewrite it, not truncate
        # into an invalid state.
        bad = tmp_path / "seg-0000000002.log"
        bad.write_bytes(b"SOC")
        recovered = EventLog(tmp_path)
        assert recovered.truncated_bytes == 3
        assert recovered.last_seq == 1
        recovered.append(1.0, 0, ev("v2", "s", 1.0, 2))
        assert [r.seq for r in recovered.replay()] == [1, 2]
        recovered.close()


# ----------------------------------------------------------------------
# Forensics scan vs brute force
# ----------------------------------------------------------------------
class TestForensicsScan:
    DISORDER = 2.0

    @staticmethod
    def _populated(tmp_path, n=400, batch=7, segment_max=16):
        rng = RngStreams(5).get("scan")
        log = EventLog(tmp_path, segment_max_records=segment_max,
                       index_every=4)
        events = []
        for i in range(n):
            t = i * 0.25 + rng.uniform(0.0, TestForensicsScan.DISORDER)
            events.append(ev(f"v{rng.randrange(12)}",
                             f"sig.{rng.randrange(5)}", t, i))
        for start in range(0, n, batch):
            chunk = events[start:start + batch]
            log.append_batch(chunk[-1].time, 0, chunk)
            if start % (batch * 4) == 0:
                log.append_mark(chunk[-1].time, start)
        return log, events

    def _brute(self, log, signature=None, vehicle_id=None, t0=None, t1=None):
        out = []
        for record in log.replay():
            if record.kind != "batch":
                continue
            for event in record.events:
                if signature is not None and event.signature != signature:
                    continue
                if vehicle_id is not None and event.vehicle_id != vehicle_id:
                    continue
                if t0 is not None and event.time < t0:
                    continue
                if t1 is not None and event.time > t1:
                    continue
                out.append((record.seq, event))
        return out

    def test_scan_matches_brute_force(self, tmp_path):
        log, _ = self._populated(tmp_path)
        queries = [
            {},
            {"signature": "sig.2"},
            {"vehicle_id": "v3"},
            {"t0": 20.0, "t1": 30.0},
            {"signature": "sig.0", "t0": 10.0, "t1": 80.0},
            {"signature": "sig.4", "vehicle_id": "v7", "t0": 0.0,
             "t1": 200.0},
            {"t0": 99.0},
            {"t1": 1.0},
        ]
        for query in queries:
            got = [(h.seq, h.event)
                   for h in log.scan(max_disorder_s=self.DISORDER, **query)]
            assert got == self._brute(log, **query), query
        log.close()

    def test_sparse_index_skips_out_of_range_work(self, tmp_path):
        log, events = self._populated(tmp_path)
        total_records = log.last_seq
        # A window entirely before the stream: every segment skipped.
        list(log.scan(t0=-100.0, t1=-1.0, max_disorder_s=self.DISORDER))
        stats = log.last_scan_stats
        assert stats["segments_skipped"] == stats["segments"]
        assert stats["records_read"] == 0
        # A narrow mid-stream window: the index must prove most records
        # irrelevant (seek past the old prefix, stop after the horizon).
        hits = list(log.scan(t0=48.0, t1=52.0,
                             max_disorder_s=self.DISORDER))
        stats = log.last_scan_stats
        assert hits
        assert stats["records_read"] < total_records / 2
        assert stats["segments_skipped"] > 0
        log.close()

    def test_checkpoint_seek_skips_old_prefix(self, tmp_path):
        # One big segment: reaching a late window must seek past the old
        # prefix via the sparse checkpoints instead of reading it.
        log, _ = self._populated(tmp_path, segment_max=4096)
        want = self._brute(log, t0=90.0, t1=200.0)
        got = [(h.seq, h.event)
               for h in log.scan(t0=90.0, t1=200.0,
                                 max_disorder_s=self.DISORDER)]
        assert got == want
        stats = log.last_scan_stats
        assert stats["bytes_seeked"] > 0
        assert stats["records_read"] < log.last_seq / 2
        log.close()

    def test_scan_survives_missing_sidecar(self, tmp_path):
        log, _ = self._populated(tmp_path)
        want = self._brute(log, signature="sig.1")
        sidecar = log.segment_paths()[0].with_suffix(".idx.json")
        sidecar.unlink()
        got = [(h.seq, h.event) for h in log.scan(signature="sig.1")]
        assert got == want
        log.close()


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
class TestSnapshotStore:
    def test_retention_keeps_newest(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for i in range(5):
            store.save({"state": i})
        assert store.load_latest() == {"state": 4}
        assert len(list(tmp_path.glob("snap-*.json"))) == 2

    def test_corrupt_latest_falls_back(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=4)
        store.save({"state": "good"})
        newest = store.save({"state": "torn"})
        newest.write_text(newest.read_text()[:20])  # torn write
        assert store.load_latest() == {"state": "good"}

    def test_crc_mismatch_is_skipped(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=4)
        store.save({"state": "good"})
        newest = store.save({"state": "tampered"})
        wrapped = json.loads(newest.read_text())
        wrapped["payload"]["state"] = "evil"
        newest.write_text(json.dumps(wrapped, sort_keys=True))
        assert store.load_latest() == {"state": "good"}

    def test_empty_store_and_reopen_numbering(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.load_latest() is None
        store.save({"n": 1})
        reopened = SnapshotStore(tmp_path)
        reopened.save({"n": 2})
        names = sorted(p.name for p in tmp_path.glob("snap-*.json"))
        assert names == ["snap-00000001.json", "snap-00000002.json"]


# ----------------------------------------------------------------------
# Analytic state round trips
# ----------------------------------------------------------------------
class TestAnalyticsSnapshots:
    @staticmethod
    def _worked_engine():
        engine = CorrelationEngine(window_s=4.0, k=3, dedup_window_s=1.0,
                                   max_lateness_s=1.0)
        seq = 0
        for t in range(12):
            for v in range(1 + t % 3):
                seq += 1
                engine.observe(ev(f"v{v}", f"sig.{t % 4}", float(t), seq))
        # Exercise duplicates / late / low-severity ledgers too.
        engine.observe(ev("v0", "sig.0", 0.5, 1))
        engine.observe(ev("v9", "sig.9", 0.0, 9000))
        engine.observe(ev("v8", "sig.8", 11.0, 9001, severity=Asil.QM))
        return engine

    def test_engine_round_trip_and_future_equivalence(self):
        engine = self._worked_engine()
        snap = engine.snapshot()
        restored = CorrelationEngine.from_snapshot(snap)
        assert restored.snapshot() == snap
        assert json.dumps(snap, sort_keys=True)  # JSON-safe
        # The restored engine must behave identically from here on.
        future = [ev(f"v{i % 5}", f"sig.{i % 4}", 12.0 + i * 0.3, 500 + i)
                  for i in range(40)]
        a = engine.observe_batch(future)
        b = restored.observe_batch(list(future))
        assert a == b
        assert engine.snapshot() == restored.snapshot()

    def test_merger_round_trip(self):
        engines = [CorrelationEngine(window_s=4.0, k=3),
                   CorrelationEngine(window_s=4.0, k=3)]
        merger = GlobalCampaignMerger(window_s=4.0, k=3)
        seq = 0
        for t in range(8):
            for shard, engine in enumerate(engines):
                seq += 1
                engine.observe(ev(f"v{t}{shard}", "sig.x", float(t), seq))
            merger.merge(engines)
        snap = merger.snapshot()
        restored = GlobalCampaignMerger.from_snapshot(snap)
        assert restored.snapshot() == snap
        # Continue merging with both and compare.
        seq += 1
        engines[0].observe(ev("vnew", "sig.x", 9.0, seq))
        restored_engines = [
            CorrelationEngine.from_snapshot(e.snapshot()) for e in engines]
        got_a = merger.merge(engines)
        got_b = restored.merge(restored_engines)
        assert got_a == got_b
        assert merger.snapshot() == restored.snapshot()

    def test_tracker_round_trip_counter_and_history(self):
        tracker = IncidentTracker(escalation_spread=3)
        engine = CorrelationEngine(window_s=4.0, k=2)
        detection = None
        for i in range(2):
            detection = engine.observe(ev(f"v{i}", "sig.a", 1.0 + i, i)) \
                or detection
        incident = tracker.open_from_detection(detection, Asil.C)
        incident.advance(3.0, IncidentState.TRIAGED)
        incident.advance(4.0, IncidentState.CONTAINED)
        tracker.attach_vehicle("sig.a", "v99")
        snap = tracker.snapshot()
        restored = IncidentTracker.from_snapshot(snap)
        assert restored.snapshot() == snap
        got = restored.incidents[incident.incident_id]
        assert got.history == incident.history
        assert got.time_to_containment_s == incident.time_to_containment_s
        # The id counter keeps incrementing across the restart.
        seq = 100
        for i in range(2):
            seq += 1
            detection = engine.observe(
                ev(f"w{i}", "sig.b", 6.0 + i, seq)) or detection
        fresh = restored.open_from_detection(detection, Asil.B)
        assert fresh.incident_id == "INC-00002"


# ----------------------------------------------------------------------
# The tentpole differential: kill + recover == uninterrupted
# ----------------------------------------------------------------------
def _durable_scene(root, seed=11, n=600, prevalence=0.05, num_shards=1,
                   capacity_eps=120.0, snapshot_every_pumps=8):
    sim = Simulator()
    rng = RngStreams(seed)
    campaigns = seeded_campaigns(rng, n, prevalence)
    fleet = FleetModel(n, campaigns)
    store = DurableStore(root)
    soc = SecurityOperationsCenter(
        sim, fleet, capacity_eps=capacity_eps, k=3, respond=False,
        num_shards=num_shards, store=store,
        snapshot_every_pumps=snapshot_every_pumps)
    generator = FleetWorkloadGenerator(sim, rng, fleet, soc.pipeline)
    soc.start()
    generator.start()
    return sim, soc, store


def _canon(snapshot):
    return json.dumps(snapshot, sort_keys=True)


class TestCrashRecoveryDifferential:
    DURATION = 12.0

    @pytest.mark.parametrize("num_shards", [1, 4])
    @pytest.mark.parametrize("kill_pump", [5, 18, 31])
    def test_kill_recover_resume_is_byte_identical(
            self, tmp_path, num_shards, kill_pump):
        sim, soc, _ = _durable_scene(tmp_path / "ref",
                                     num_shards=num_shards)
        sim.run_until(self.DURATION)
        soc.final_drain()
        ref_state = _canon(soc.analytics_snapshot())
        ref_metrics = soc.metrics()
        ref_flagged = soc.flagged_signatures()

        sim, soc, store = _durable_scene(tmp_path / "crash",
                                         num_shards=num_shards)
        sim.run_until(kill_pump * soc.pump_tick_s)
        live_mid = _canon(soc.analytics_snapshot())
        recovered = recover_soc_state(store)
        # 1. The rebuilt state equals the live state at the kill point.
        assert _canon(recovered.analytics_snapshot()) == live_mid
        # 2. Resuming from the rebuilt state reaches the exact same end
        #    state, verdicts, and metrics as never having crashed.
        soc.adopt_analytics(recovered)
        sim.run_until(self.DURATION)
        soc.final_drain()
        assert _canon(soc.analytics_snapshot()) == ref_state
        assert soc.metrics() == ref_metrics
        assert soc.flagged_signatures() == ref_flagged

    def test_recovery_from_initial_snapshot_replays_whole_log(
            self, tmp_path):
        # snapshot_every_pumps=0: only snapshot 0 exists, so recovery
        # must replay the entire log through observe_batch.
        sim, soc, store = _durable_scene(tmp_path, num_shards=4,
                                         snapshot_every_pumps=0)
        sim.run_until(self.DURATION)
        soc.final_drain()
        recovered = recover_soc_state(store)
        assert recovered.replayed_pumps > 0
        assert recovered.replayed_events > 0
        assert _canon(recovered.analytics_snapshot()) == _canon(
            soc.analytics_snapshot())
        assert recovered.flagged_signatures() == soc.flagged_signatures()

    def test_recovery_under_congestion(self, tmp_path):
        # A backend 10x too slow: queues stay saturated, shedding is
        # active, and the final drain runs its backlog loop -- recovery
        # must still be exact.
        sim, soc, store = _durable_scene(tmp_path, num_shards=2,
                                         capacity_eps=2.0,
                                         snapshot_every_pumps=6)
        sim.run_until(self.DURATION)
        assert soc.pipeline.queue_depth > 0  # genuinely congested
        recovered = recover_soc_state(store)
        assert _canon(recovered.analytics_snapshot()) == _canon(
            soc.analytics_snapshot())
        soc.adopt_analytics(recovered)
        soc.final_drain()
        assert soc.pipeline.queue_depth == 0

    def test_empty_store_refuses_recovery(self, tmp_path):
        store = DurableStore(tmp_path)
        with pytest.raises(RuntimeError):
            recover_soc_state(store)

    def test_soc_store_scan_forensics(self, tmp_path):
        sim, soc, store = _durable_scene(tmp_path, num_shards=4)
        sim.run_until(self.DURATION)
        soc.final_drain()
        flagged = sorted(soc.flagged_signatures())
        assert flagged
        # Every vehicle the tracker attributes to the campaign must be
        # findable in the archived log by signature.
        signature = flagged[0]
        hits = list(store.log.scan(signature=signature))
        assert hits
        assert all(h.event.signature == signature for h in hits)
        # Time-bounded scan agrees with the unbounded one, restricted.
        t_hits = list(store.log.scan(signature=signature, t0=2.0, t1=8.0,
                                     max_disorder_s=2.0))
        assert t_hits == [h for h in hits if 2.0 <= h.event.time <= 8.0]

    def test_e17_crash_recovery_cell_smoke(self, tmp_path):
        from repro.experiments import e17_soc
        stats = e17_soc.crash_recovery_cell(
            n_vehicles=600, prevalence=0.05, duration_s=10.0, kill_pump=30,
            num_shards=2, capacity_eps=120.0, snapshot_every_pumps=8,
            root=tmp_path)
        assert stats["byte_identical"] == 1.0
        assert stats["replayed_pumps"] > 0
        assert stats["events_logged"] > 0
