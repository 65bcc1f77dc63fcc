"""Tests for repro.soc.federation and the E18 federated topology.

Covers the shipper's raw tail read, ``EventLog.payloads(after_seq)``
(it bisects the in-memory segment table and seeks by checkpoint; pinned
across a segment roll and a reopen, and an empty tail opens no file at
10 and 400 segments), the shipment wire codec (raw payloads framed as
archived, round-trip + every-byte corruption rejection), a shipper that
decodes nothing and a hub that refuses a schema-invalid record, the
hub's one decode per blob and its published ``corrupt_rejected`` count,
the seeded WAN channel model, shipper restart / receiver dedup
(at-least-once made exactly-once), and the tentpole differentials:
a federated hub at zero lag is byte-identical to a union replay and
semantically identical to one global correlation engine fed the union
stream; killing any region mid-ship (dropping its in-flight blobs and
restarting its shipper from seq 0) converges byte-identically to the
uninterrupted twin; and the Hypothesis property that any reordering /
duplication of the shipped segments yields the same final hub state as
in-order delivery.
"""

import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.soc.federation as federation
import repro.soc.store as store
from repro.core.safety import Asil
from repro.soc import (
    CorrelationEngine,
    CorruptRecord,
    EventLog,
    EventSource,
    FederationHub,
    SegmentReceiver,
    SegmentShipper,
    Shipment,
    ShippingChannel,
    decode_shipment,
    encode_shipment,
    make_event,
)
from repro.experiments.e18_federation import build_federated_scene
from repro.soc.store import canonical_dumps


def ev(vehicle, sig, time, seq, severity=Asil.B):
    return make_event(vehicle, EventSource.IDS, sig, time, seq,
                      severity=severity)


def _canon(obj):
    return json.dumps(obj, sort_keys=True)


def _fill_log(log, n_batches, per_batch=2, mark_every=3):
    """Append a deterministic mix of batch and mark records."""
    seq = 0
    for b in range(n_batches):
        t = 0.25 * (b + 1)
        events = [ev(f"v{b}_{i}", f"sig.{b % 4}", t - 0.1, b * 10 + i)
                  for i in range(per_batch)]
        log.append_batch(t, b % 2, events)
        seq += 1
        if (b + 1) % mark_every == 0:
            log.append_mark(t, (b + 1) // mark_every)
            seq += 1
    return seq


def _payloads(log, after_seq=0):
    return [payload for _, payload in log.payloads(after_seq)]


@pytest.fixture
def frame_reads(monkeypatch):
    """Count the segment files the log reads (``segments``) and the
    frames it reads from them (``frames``) through ``store._read_frames``,
    the one segment file reader."""
    counts = Counter()
    real = store._read_frames

    def spy(path, start_offset, *, tolerant):
        counts["segments"] += 1
        for item in real(path, start_offset, tolerant=tolerant):
            counts["frames"] += 1
            yield item

    monkeypatch.setattr(store, "_read_frames", spy)
    return counts


#: Paths opened while a test records them (``None``: not recording).
_opened = None


def _note_open(event, args):
    if event == "open" and _opened is not None:
        _opened.append(str(args[0]))


@pytest.fixture
def opened_files():
    """Every file the process opens while the test runs, by audit hook
    (a hook cannot be removed, so it is added once and then idles)."""
    global _opened
    if not getattr(_note_open, "installed", False):
        sys.addaudithook(_note_open)
        _note_open.installed = True
    _opened = []
    yield _opened
    _opened = None


# ----------------------------------------------------------------------
# The shipper's tail read: EventLog.payloads(after_seq) seeks
# ----------------------------------------------------------------------
class TestEventLogTail:
    def test_tail_matches_replay_at_every_cursor(self, tmp_path,
                                                 monkeypatch):
        """``replay(after_seq=c)`` is the full replay's suffix for every
        cursor ``c``, across rotated segments -- and again once the log
        is reopened, when its closed segments have no checkpoints."""
        monkeypatch.setattr(store, "INDEX_EVERY", 2)
        log = EventLog(tmp_path, segment_max_records=3)
        total = _fill_log(log, 10)
        assert len(log.segment_paths()) >= 4
        full = list(log.replay())
        assert [r.seq for r in full] == list(range(1, total + 1))
        for cursor in range(total + 1):
            assert list(log.replay(after_seq=cursor)) == full[cursor:]
        log.close()
        reopened = EventLog(tmp_path, segment_max_records=3)
        for cursor in range(total + 1):
            assert list(reopened.replay(after_seq=cursor)) == full[cursor:]
        reopened.close()

    def test_tail_seeks_past_closed_segments(self, tmp_path, monkeypatch,
                                             frame_reads):
        monkeypatch.setattr(store, "INDEX_EVERY", 1)
        log = EventLog(tmp_path, segment_max_records=3)
        total = _fill_log(log, 12)
        assert len(log.segment_paths()) == 6
        frame_reads.clear()
        tailed = list(log.replay(after_seq=total - 2))
        assert [r.seq for r in tailed] == [total - 1, total]
        # The last closed segment, entered at its last checkpoint, and
        # the active one: one frame read from each.
        assert frame_reads == {"segments": 2, "frames": 2}
        frame_reads.clear()
        full = list(log.replay(after_seq=0))
        assert len(full) == total
        assert frame_reads == {"segments": 6, "frames": total}
        log.close()

    def test_replay_seeks_by_checkpoint_inside_one_segment(
            self, tmp_path, frame_reads):
        """Inside one large segment a late cursor enters at the last
        checkpoint at or before it, and a reopened log -- whose tail
        checkpoints are rebuilt from the frames alone -- replays every
        cursor with the same work."""
        log = EventLog(tmp_path, segment_max_records=4096)
        total = _fill_log(log, 300)
        assert total > 4 * store.INDEX_EVERY
        assert len(log.segment_paths()) == 1
        late = total - 10
        frame_reads.clear()
        tailed = list(log.replay(after_seq=late))
        assert [r.seq for r in tailed] == list(range(late + 1, total + 1))
        assert frame_reads["segments"] == 1
        assert frame_reads["frames"] <= store.INDEX_EVERY + 10
        cursors = (0, store.INDEX_EVERY - 1, store.INDEX_EVERY,
                   store.INDEX_EVERY + 1, late, total)

        def read(log, cursor):
            frame_reads.clear()
            return list(log.replay(after_seq=cursor)), dict(frame_reads)

        before = {cursor: read(log, cursor) for cursor in cursors}
        log.close()
        reopened = EventLog(tmp_path, segment_max_records=4096)
        for cursor in cursors:
            assert read(reopened, cursor) == before[cursor]
        reopened.close()

    def test_tail_across_a_segment_roll(self, tmp_path, monkeypatch,
                                        frame_reads):
        """Regression pin: a cursor parked exactly at a closed segment's
        last record resumes at the next segment's first record."""
        monkeypatch.setattr(store, "INDEX_EVERY", 1)
        log = EventLog(tmp_path, segment_max_records=4)
        _fill_log(log, 5)
        cursor = log.last_seq
        assert list(log.replay(after_seq=cursor)) == []
        # Appends that roll into a new segment while the cursor waits.
        before = len(log.segment_paths())
        appended = _fill_log(log, 6)
        assert len(log.segment_paths()) > before
        fresh = list(log.replay(after_seq=cursor))
        assert [r.seq for r in fresh] == \
            list(range(cursor + 1, cursor + appended + 1))
        # A cursor at a closed segment's boundary skips that segment.
        first = log.segment_paths()[1].stem.split("-")[1]
        frame_reads.clear()
        list(log.replay(after_seq=int(first) - 1))
        assert frame_reads["segments"] == len(log.segment_paths()) - 1
        log.close()

    @pytest.mark.parametrize("n_segments", [10, 400])
    def test_an_empty_tail_pump_opens_nothing(self, tmp_path, n_segments,
                                              frame_reads, opened_files):
        """Regression: every read listed the segments and loaded each
        closed segment's sidecar, so the shipper's per-pump read of an
        empty tail cost O(segments).  It now opens no file at all."""
        log = EventLog(tmp_path, segment_max_records=2)
        for b in range(2 * n_segments):
            log.append_batch(0.25 * b, 0, [ev("v", "sig.0", 0.25 * b, b)])
        assert len(log.segment_paths()) == n_segments
        shipper = SegmentShipper("region-a", log,
                                 ShippingChannel(random.Random(0)))
        assert shipper.pump(0.0) == 2 * n_segments
        frame_reads.clear()
        opened_files.clear()
        assert shipper.pump(1.0) == 0
        assert frame_reads == {}
        assert opened_files == []
        log.close()


# ----------------------------------------------------------------------
# Shipment wire codec
# ----------------------------------------------------------------------
def _shipment_from_log(tmp_path, region="region-a", n_batches=4):
    """One whole log as ``encode_shipment`` arguments."""
    log = EventLog(tmp_path, segment_max_records=64)
    _fill_log(log, n_batches)
    payloads = _payloads(log)
    log.close()
    return region, 1, payloads


class TestShipmentCodec:
    def test_round_trip(self, tmp_path):
        log = EventLog(tmp_path, segment_max_records=64)
        _fill_log(log, 4)
        records = tuple(log.replay())
        payloads = _payloads(log)
        log.close()
        assert decode_shipment(encode_shipment("region-a", 1, payloads)) \
            == Shipment(region="region-a", first_seq=1,
                        last_seq=records[-1].seq,
                        watermark=records[-1].dispatch_t, records=records)

    def test_every_corrupt_byte_is_rejected_whole(self, tmp_path):
        blob = encode_shipment(*_shipment_from_log(tmp_path, n_batches=2))
        for offset in range(len(blob)):
            damaged = bytearray(blob)
            damaged[offset] ^= 0xFF
            with pytest.raises(CorruptRecord):
                decode_shipment(bytes(damaged))
        with pytest.raises(CorruptRecord):
            decode_shipment(blob[:-3])  # truncated mid-frame
        with pytest.raises(CorruptRecord):
            decode_shipment(b"")

    def test_empty_shipment_refuses_to_encode(self):
        with pytest.raises(ValueError):
            encode_shipment("r", 1, [])


# ----------------------------------------------------------------------
# Transport: channel, shipper, receiver
# ----------------------------------------------------------------------
class TestShippingChannel:
    def test_lag_gates_delivery(self):
        chan = ShippingChannel(random.Random(0), lag_s=2.0)
        assert chan.send(1.0, b"a")
        assert chan.deliver(2.9) == []
        assert chan.deliver(3.0) == [b"a"]
        assert chan.in_flight == 0

    def test_jitter_reorders_back_to_back_sends(self):
        chan = ShippingChannel(random.Random(3), jitter_s=10.0)
        blobs = [bytes([i]) for i in range(8)]
        for blob in blobs:
            chan.send(0.0, blob)
        delivered = chan.deliver(float("inf"))
        assert sorted(delivered) == sorted(blobs)
        assert delivered != blobs

    def test_duplication_and_outage(self):
        chan = ShippingChannel(random.Random(0), duplicate_p=1.0,
                               outages=((5.0, 10.0),))
        assert chan.send(0.0, b"x")
        assert chan.deliver(float("inf")) == [b"x", b"x"]
        assert chan.in_outage(5.0) and not chan.in_outage(10.0)
        assert not chan.send(7.0, b"y")
        assert chan.refused == 1
        assert chan.send(10.0, b"y")

    def test_drop_in_flight_loses_the_wire(self):
        chan = ShippingChannel(random.Random(0), lag_s=1.0)
        chan.send(0.0, b"a")
        chan.send(0.0, b"b")
        assert chan.drop_in_flight() == 2
        assert chan.deliver(float("inf")) == []

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            ShippingChannel(random.Random(0), lag_s=-1.0)
        with pytest.raises(ValueError):
            ShippingChannel(random.Random(0), duplicate_p=1.5)


class TestShipperAndReceiver:
    def _pipe(self, tmp_path, monkeypatch, **channel_kw):
        monkeypatch.setattr(federation, "SHIPMENT_MAX_RECORDS", 3)
        log = EventLog(tmp_path, segment_max_records=4)
        chan = ShippingChannel(random.Random(0), **channel_kw)
        shipper = SegmentShipper("region-a", log, chan)
        return log, chan, shipper, SegmentReceiver("region-a")

    def test_ship_receive_preserves_records(self, tmp_path, monkeypatch):
        log, chan, shipper, receiver = self._pipe(tmp_path, monkeypatch)
        total = _fill_log(log, 7)
        assert shipper.pump(0.0) == total
        assert shipper.shipped_seq == total
        assert shipper.shipments_sent == -(-total // 3)
        for blob in chan.deliver(float("inf")):
            receiver.receive(decode_shipment(blob))
        assert sorted(receiver.buffer) == list(range(1, total + 1))
        assert receiver.records_received == total
        assert receiver.duplicates == 0
        # Nothing new: the cursor holds and no blob goes out.
        assert shipper.pump(1.0) == 0
        log.close()

    def test_outage_leaves_cursor_then_retransmits(self, tmp_path,
                                                   monkeypatch):
        log, chan, shipper, receiver = self._pipe(
            tmp_path, monkeypatch, outages=((5.0, 10.0),))
        total = _fill_log(log, 5)
        assert shipper.pump(7.0) == 0
        assert shipper.send_refused == 1
        assert shipper.shipped_seq == 0
        assert shipper.pump(12.0) == total
        for blob in chan.deliver(float("inf")):
            receiver.receive(decode_shipment(blob))
        assert len(receiver.buffer) == total
        log.close()

    def test_restarted_shipper_reships_and_receiver_dedups(self, tmp_path,
                                                           monkeypatch):
        log, chan, shipper, receiver = self._pipe(tmp_path, monkeypatch)
        total = _fill_log(log, 6)
        shipper.pump(0.0)
        for blob in chan.deliver(float("inf")):
            receiver.receive(decode_shipment(blob))
        # Region kill: only the durable log survives; the replacement
        # shipper restarts from seq 0 and re-ships all of history.
        replacement = SegmentShipper("region-a", log, chan)
        assert replacement.pump(1.0) == total
        for blob in chan.deliver(float("inf")):
            receiver.receive(decode_shipment(blob))
        assert receiver.duplicates == total
        assert sorted(receiver.buffer) == list(range(1, total + 1))
        log.close()

    def test_receiver_rejects_corrupt_and_misrouted(self, tmp_path):
        blob = encode_shipment(
            *_shipment_from_log(tmp_path, region="region-a"))
        hub = FederationHub(["region-b"], 1)
        assert not hub.receive(blob)  # wrong region
        damaged = bytearray(blob)
        damaged[7] ^= 0xFF
        assert not hub.receive(bytes(damaged))
        assert hub.corrupt_rejected == 2
        assert hub.metrics()["corrupt_rejected"] == 2.0
        assert hub.receivers["region-b"].records_received == 0

    def test_out_of_order_buffering(self, tmp_path):
        log = EventLog(tmp_path, segment_max_records=64)
        _fill_log(log, 4)
        payloads = _payloads(log)
        log.close()
        one = encode_shipment("r", 1, payloads[:1])
        rest = encode_shipment("r", 2, payloads[1:])
        receiver = SegmentReceiver("r")
        receiver.receive(decode_shipment(rest))
        assert receiver.next_ready() is None  # gap at seq 1
        receiver.receive(decode_shipment(one))
        assert receiver.next_ready().seq == 1

    def test_the_shipper_decodes_nothing(self, tmp_path, monkeypatch):
        """The shipper frames the archived bytes as they are: with the
        log's decoder refusing every record, a multi-segment log still
        ships, and the hub it feeds ends where a hub fed the decoded
        records directly does."""
        log = EventLog(tmp_path, segment_max_records=4)
        total = _fill_log(log, 12)
        assert len(log.segment_paths()) > 3
        expected = FederationHub(["region-a"], 2)  # _fill_log: 2 shards
        expected.receivers["region-a"].buffer.update(
            (record.seq, record) for record in log.replay())
        expected.finalize(0.0)
        assert expected.flagged_signatures()

        def refuse(seq, payload):
            raise AssertionError(f"the shipper decoded seq {seq}")

        monkeypatch.setattr(store, "record_from_payload", refuse)
        monkeypatch.setattr(federation, "SHIPMENT_MAX_RECORDS", 5)
        chan = ShippingChannel(random.Random(0))
        assert SegmentShipper("region-a", log, chan).pump(0.0) == total
        log.close()
        hub = FederationHub(["region-a"], 2)
        for blob in chan.deliver(float("inf")):
            assert hub.receive(blob)
        hub.finalize(0.0)
        assert hub.flagged_signatures() == expected.flagged_signatures()
        assert _canon(hub.analytics_snapshot()) == \
            _canon(expected.analytics_snapshot())

    def test_a_schema_invalid_record_is_refused_at_the_hub(
            self, tmp_path, monkeypatch):
        """The hub is the one schema check on the shipping path: a
        CRC-valid record whose event breaks the schema ships, its blob
        is refused whole, and no later record of its region applies."""
        monkeypatch.setattr(federation, "SHIPMENT_MAX_RECORDS", 1)
        log = EventLog(tmp_path)
        log.append_batch(0.25, 0, [ev("v1", "sig.0", 0.2, 1)])
        log.append_mark(0.25, 1)
        bad = list(ev("v2", "sig.0", 0.4, 2))
        bad[5] = 99  # a severity outside the ASIL levels
        log.append_batch(0.5, 0, [bad])
        log.append_batch(0.75, 0, [ev("v3", "sig.0", 0.7, 3)])
        log.append_mark(0.75, 2)
        chan = ShippingChannel(random.Random(0))
        assert SegmentShipper("region-a", log, chan).pump(0.0) == 5
        log.close()
        hub = FederationHub(["region-a"], 1)
        assert [hub.receive(blob) for blob in chan.deliver(float("inf"))] \
            == [True, True, False, True, True]
        assert hub.metrics()["corrupt_rejected"] == 1.0
        hub.finalize(1.0)
        assert hub.records_applied == 2
        assert hub.unapplied() == 2


# ----------------------------------------------------------------------
# Hub units
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shipped_pair(tmp_path_factory):
    """Two consecutive region-a shipment blobs from one log."""
    log = EventLog(tmp_path_factory.mktemp("pair"))
    _fill_log(log, 6)
    payloads = _payloads(log)
    log.close()
    half = len(payloads) // 2
    return (encode_shipment("region-a", 1, payloads[:half]),
            encode_shipment("region-a", half + 1, payloads[half:]))


class TestFederationHubUnits:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FederationHub([])
        with pytest.raises(ValueError):
            FederationHub(["a", "a"])

    def test_receive_routes_and_counts_unrouted(self, tmp_path):
        hub = FederationHub(["region-a"], 2)  # _fill_log uses 2 shards
        blob = encode_shipment(*_shipment_from_log(tmp_path, "region-a"))
        assert hub.receive(blob)
        assert not hub.receive(b"garbage")
        foreign = encode_shipment(
            *_shipment_from_log(tmp_path / "other", "region-z"))
        assert not hub.receive(foreign)
        assert hub.corrupt_rejected == 2
        assert hub.metrics()["corrupt_rejected"] == 2.0

    @pytest.mark.parametrize("shard", [2, 3, -1])
    def test_shipment_naming_an_unknown_shard_is_refused(self, shard):
        """Regression: the hub used to index its engines with a shipped
        batch's unchecked shard -- an IndexError after the record was
        already counted applied, or (shard -1) the events landing on
        another engine.  Such a blob is unroutable: refused whole."""
        events = tuple(ev(f"v{i}", "sig.x", 0.1 * i, i) for i in range(3))
        payloads = [canonical_dumps(["b", 0.25, shard, events]),
                    canonical_dumps(["m", 0.25, 1])]
        hub = FederationHub(["region-a", "region-b"], 2)
        before = _canon(hub.analytics_snapshot())
        assert not hub.receive(encode_shipment("region-a", 1, payloads))
        assert hub.metrics()["corrupt_rejected"] == 1.0
        assert hub.finalize(1.0) == 0
        assert hub.records_applied == 0 and hub.unapplied() == 0
        assert _canon(hub.analytics_snapshot()) == before

    def test_torn_shipment_counts_in_metrics(self, tmp_path):
        """Regression: a torn blob the hub refuses must show in
        ``metrics()["corrupt_rejected"]``, not only in a private tally."""
        log = EventLog(tmp_path)
        log.append_batch(0.5, 0, [ev("v1", "sig.0", 0.4, 1)])
        chan = ShippingChannel(random.Random(0))
        SegmentShipper("region-a", log, chan).pump(0.0)
        log.close()
        chan.corrupt_next(1)
        (blob,) = chan.deliver(float("inf"))
        hub = FederationHub(["region-a"], 1)
        assert not hub.receive(blob)
        assert hub.metrics()["corrupt_rejected"] == 1.0
        assert hub.unapplied() == 0

    def test_receive_decodes_each_blob_once(self, tmp_path, monkeypatch):
        calls = []

        def spy(data):
            calls.append(data)
            return decode_shipment(data)

        monkeypatch.setattr(federation, "decode_shipment", spy)
        hub = FederationHub(["region-a"], 2)  # _fill_log uses 2 shards
        blob = encode_shipment(*_shipment_from_log(tmp_path, "region-a"))
        foreign = encode_shipment(
            *_shipment_from_log(tmp_path / "other", "region-z"))
        for data in (blob, blob[:-1], foreign, blob):
            hub.receive(data)
        assert calls == [blob, blob[:-1], foreign, blob]
        assert hub.corrupt_rejected == 2  # the torn and the foreign one

    @given(offset=st.integers(min_value=0), mask=st.integers(1, 255))
    @settings(max_examples=150, deadline=None)
    def test_any_byte_flip_is_refused_whole(self, shipped_pair, offset,
                                            mask):
        """A blob with any single byte flipped is refused whole, counted
        exactly once, and leaves the hub's analytic state untouched."""
        first, second = shipped_pair
        hub = FederationHub(["region-a"], 2)  # _fill_log uses 2 shards
        assert hub.receive(first)
        hub.advance(0.0)
        before = _canon(hub.analytics_snapshot())
        unapplied = hub.unapplied()
        damaged = bytearray(second)
        damaged[offset % len(damaged)] ^= mask
        assert not hub.receive(bytes(damaged))
        hub.advance(0.0)
        assert hub.metrics()["corrupt_rejected"] == 1.0
        assert hub.unapplied() == unapplied
        assert _canon(hub.analytics_snapshot()) == before
        # The retransmitted intact blob still applies.
        assert hub.receive(second)

    def test_watermark_gate_stalls_on_silent_region(self, tmp_path):
        hub = FederationHub(["region-a", "region-b"], 2)
        blob = encode_shipment(
            *_shipment_from_log(tmp_path, "region-a", n_batches=3))
        hub.receive(blob)
        # region-b has announced nothing: its frontier is -inf, so no
        # region-a record is provably ordered yet.
        assert hub.advance(0.0) == 0
        assert hub.stalled_rounds == 1
        assert hub.unapplied() > 0
        # End-of-stream lifts the gate and everything drains.
        assert hub.finalize(0.0) == hub.records_applied
        assert hub.unapplied() == 0
        metrics = hub.metrics()
        assert metrics["records_applied"] == hub.records_applied
        assert metrics["stalled_rounds"] == 1.0


# ----------------------------------------------------------------------
# The tentpole differentials (federated scenes)
# ----------------------------------------------------------------------
DIFF_N = 250
DIFF_DURATION_S = 22.0
KILL_AT_S = 10.0


def _union_reference_hub(scene):
    """A fresh hub fed every region's full log directly (no transport),
    drained in one finalize -- the zero-lag union replay reference."""
    profile = next(iter(scene.regions.values())).center.federation_profile()
    ref = FederationHub.from_profile(list(scene.regions), profile)
    for name, runtime in scene.regions.items():
        receiver = ref.receivers[name]
        for record in runtime.store.log.replay():
            receiver.buffer[record.seq] = record
    ref.finalize(0.0)
    return ref


def _global_engine_flagged(scene, profile):
    """One un-sharded, un-federated engine fed the union stream in the
    hub's global (dispatch_t, region, seq) order."""
    engine = CorrelationEngine(
        window_s=profile["window_s"], k=profile["k"],
        dedup_window_s=profile["dedup_window_s"],
        max_lateness_s=profile["max_lateness_s"])
    entries = []
    for index, name in enumerate(scene.regions):
        for record in scene.regions[name].store.log.replay():
            entries.append((record.dispatch_t, index, record.seq, record))
    entries.sort(key=lambda e: e[:3])
    for _, _, _, record in entries:
        if record.kind == "batch":
            engine.observe_batch(list(record.events))
    return set(engine.flagged_signatures)


class TestFederatedDifferential:
    @pytest.fixture(scope="class")
    def zero_lag_scene_result(self):
        scene = build_federated_scene(seed=1, n_per_region=DIFF_N,
                                      lag_s=0.0)
        try:
            scene.start()
            scene.run(DIFF_DURATION_S)
            profile = next(iter(
                scene.regions.values())).center.federation_profile()
            yield {
                "scene": scene,
                "profile": profile,
                "hub_canon": _canon(scene.hub.analytics_snapshot()),
                "ref_canon": _canon(
                    _union_reference_hub(scene).analytics_snapshot()),
                "global_flagged": _global_engine_flagged(scene, profile),
                "local_flagged": {
                    name: set(runtime.center.flagged_signatures())
                    for name, runtime in scene.regions.items()},
            }
        finally:
            scene.close()

    def test_zero_lag_is_byte_identical_to_union_replay(
            self, zero_lag_scene_result):
        r = zero_lag_scene_result
        assert r["hub_canon"] == r["ref_canon"]
        assert r["scene"].hub.unapplied() == 0

    def test_federated_verdicts_equal_one_global_soc(
            self, zero_lag_scene_result):
        r = zero_lag_scene_result
        scene = r["scene"]
        # Every planted campaign is sub-k in every region: invisible
        # locally, detected only by the cross-region stitch.
        for name in scene.regions:
            assert not (r["local_flagged"][name]
                        & scene.campaign_signatures)
            assert r["local_flagged"][name] == set()
        flagged = scene.hub.flagged_signatures()
        assert scene.campaign_signatures <= flagged
        assert flagged == r["global_flagged"]

    def test_federation_profile_round_trips_into_hub(
            self, zero_lag_scene_result):
        r = zero_lag_scene_result
        profile = r["profile"]
        hub = FederationHub.from_profile(["a", "b"], profile)
        assert hub.num_shards == profile["num_shards"]
        assert hub.merger.window_s == profile["window_s"]
        assert hub.merger.k == profile["k"]

    @pytest.fixture(scope="class")
    def uninterrupted_twin_canon(self):
        canon, _ = _run_killable_scene(kill_region=None)
        return canon

    @pytest.mark.parametrize("victim", ["region-0", "region-1", "region-2"])
    def test_kill_any_region_mid_ship_converges_byte_identically(
            self, victim, uninterrupted_twin_canon):
        canon, dropped = _run_killable_scene(kill_region=victim)
        assert dropped > 0  # the kill really lost in-flight blobs
        assert canon == uninterrupted_twin_canon


def _run_killable_scene(kill_region):
    """Run the differential scene; optionally kill one region's shipping
    leg mid-run (drop its wire, restart its shipper from seq 0)."""
    scene = build_federated_scene(seed=1, n_per_region=DIFF_N,
                                  lag_s=1.0, jitter_s=0.3)
    dropped = 0
    try:
        scene.start()
        if kill_region is not None:
            scene.sim.run_until(KILL_AT_S)
            runtime = scene.regions[kill_region]
            dropped = runtime.channel.drop_in_flight()
            runtime.shipper = SegmentShipper(
                kill_region, runtime.store.log, runtime.channel)
        scene.run(DIFF_DURATION_S)
        assert scene.hub.unapplied() == 0
        return _canon(scene.hub.analytics_snapshot()), dropped
    finally:
        scene.close()


# ----------------------------------------------------------------------
# Satellite: Hypothesis interleaving/duplication property
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shipment_corpus():
    """A small federated run rendered as per-region shipment blobs, plus
    the canonical hub state that in-order delivery produces."""
    scene = build_federated_scene(seed=7, n_per_region=150, lag_s=0.0)
    try:
        scene.start()
        scene.run(18.0)
        names = list(scene.regions)
        profile = next(iter(
            scene.regions.values())).center.federation_profile()
        blobs = []
        for name in names:
            payloads = _payloads(scene.regions[name].store.log)
            for i in range(0, len(payloads), 5):
                blobs.append(encode_shipment(name, i + 1,
                                             payloads[i:i + 5]))
        live_canon = _canon(scene.hub.analytics_snapshot())
        planted = set(scene.campaign_signatures)
    finally:
        scene.close()
    expected_hub = FederationHub.from_profile(names, profile)
    for blob in blobs:
        expected_hub.receive(blob)
        expected_hub.advance(0.0)
    expected_hub.finalize(0.0)
    expected = _canon(expected_hub.analytics_snapshot())
    # The in-order blob replay reproduces the live zero-lag run exactly,
    # and it detected the planted cross-region campaigns.
    assert expected == live_canon
    assert planted <= set(expected_hub.merger.flagged_signatures)
    return {"names": names, "profile": profile, "blobs": blobs,
            "expected": expected}


class TestInterleavingInvariance:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_any_reordering_and_duplication_converges(
            self, shipment_corpus, seed):
        rng = random.Random(seed)
        blobs = list(shipment_corpus["blobs"])
        blobs += [b for b in blobs if rng.random() < 0.3]  # duplicates
        rng.shuffle(blobs)
        hub = FederationHub.from_profile(shipment_corpus["names"],
                                         shipment_corpus["profile"])
        for i, blob in enumerate(blobs):
            hub.receive(blob)
            if i % 5 == 0:  # interleave gated applies with arrivals
                hub.advance(0.0)
        hub.finalize(0.0)
        assert hub.unapplied() == 0
        assert _canon(hub.analytics_snapshot()) == \
            shipment_corpus["expected"]


# ----------------------------------------------------------------------
# Satellite: outage-window boundary semantics are [t0, t1)
# ----------------------------------------------------------------------
class TestOutageWindowBoundaries:
    def test_outage_window_boundaries(self):
        """Half-open pin: refused at exactly t0 and through the window,
        but a send at exactly t1 (the advertised outage end -- where a
        retry loop schedules itself) must succeed."""
        chan = ShippingChannel(random.Random(0), outages=((5.0, 10.0),))
        assert chan.in_outage(5.0)
        assert chan.in_outage(9.999)
        assert not chan.in_outage(10.0)
        assert not chan.send(5.0, b"a")          # inclusive left edge
        assert not chan.send(7.5, b"b")
        assert chan.send(10.0, b"c")             # exclusive right edge
        assert chan.send(4.999, b"d")
        assert chan.refused == 2

    def test_outage_refused_counts_only_outage_refusals(self):
        chan = ShippingChannel(random.Random(0), outages=((1.0, 2.0),))
        assert chan.send(0.0, b"x")
        assert not chan.send(1.5, b"y")
        assert chan.refused == 1
        assert chan.sent == 1


# ----------------------------------------------------------------------
# Satellite: shipper restart from seq 0 *during* an active outage
# ----------------------------------------------------------------------
def test_restart_from_seq0_during_outage_converges(tmp_path):
    """The shipper dies and restarts from cursor 0 while its link is
    still down: nothing ships until heal, then all of history re-ships
    and the receiver's dedup converges the hub byte-identically to the
    union-log reference."""
    outage = (6.0, 14.0)
    scene = build_federated_scene(
        seed=3, n_per_region=DIFF_N, lag_s=0.5,
        outages={"region-1": (outage,)}, root=tmp_path)
    try:
        scene.start()
        mid_outage = (outage[0] + outage[1]) / 2.0
        scene.sim.run_until(mid_outage)
        runtime = scene.regions["region-1"]
        assert runtime.channel.in_outage(scene.sim.now)
        shipped_before = runtime.shipper.shipped_seq
        runtime.channel.drop_in_flight()
        runtime.shipper = SegmentShipper(
            "region-1", runtime.store.log, runtime.channel)
        assert runtime.shipper.shipped_seq == 0
        # Mid-outage pumps must refuse without moving the fresh cursor.
        assert runtime.shipper.pump(scene.sim.now) == 0
        assert runtime.shipper.shipped_seq == 0
        scene.run(DIFF_DURATION_S)
        assert scene.hub.unapplied() == 0
        # History re-shipped: everything up to the old cursor arrived
        # at least twice, and dedup absorbed it.
        assert scene.hub.receivers["region-1"].duplicates >= shipped_before
        assert _canon(scene.hub.analytics_snapshot()) == \
            _canon(_union_reference_hub(scene).analytics_snapshot())
    finally:
        scene.close()


# ----------------------------------------------------------------------
# Satellite: stall-age / watermark-lag gauges
# ----------------------------------------------------------------------
class TestPartitionGauges:
    def _hub_with_region_a_data(self, tmp_path, **kw):
        hub = FederationHub(["region-a", "region-b"], 2, **kw)
        blob = encode_shipment(
            *_shipment_from_log(tmp_path, "region-a", n_batches=3))
        hub.receive(blob)
        return hub

    def test_stall_age_grows_while_a_region_is_silent(self, tmp_path):
        hub = self._hub_with_region_a_data(tmp_path)
        hub.advance(10.0)
        m = hub.metrics()
        assert m["stall_age_s[region-a]"] == 0.0  # it just progressed
        assert m["stall_age_s[region-b]"] == 0.0  # first observation
        hub.advance(14.0)
        m = hub.metrics()
        assert m["stall_age_s[region-b]"] == 4.0
        assert m["stall_age_max_s"] == 4.0
        # The brewing partition is visible *before* anything applies:
        # the gate has region-a's records all stalled behind region-b.
        assert hub.records_applied == 0

    def test_watermark_lag_tracks_bound_spread(self, tmp_path):
        hub = self._hub_with_region_a_data(tmp_path)
        hub.advance(10.0)
        m = hub.metrics()
        # region-b has announced nothing: no finite bound, lag reads 0
        # for it (nothing comparable) and 0 for the leader.
        assert m["watermark_lag_s[region-a]"] == 0.0
        assert m["watermark_lag_s[region-b]"] == 0.0
        blob = encode_shipment(
            *_shipment_from_log(tmp_path / "b", "region-b", n_batches=1))
        hub.receive(blob)
        hub.advance(11.0)
        m = hub.metrics()
        assert m["watermark_lag_s[region-b]"] > 0.0
        assert m["watermark_lag_s[region-b]"] == m["watermark_lag_max_s"]
        assert m["watermark_lag_s[region-a]"] == 0.0

    def test_gauges_reset_when_the_laggard_catches_up(self, tmp_path):
        hub = self._hub_with_region_a_data(tmp_path)
        hub.advance(10.0)
        hub.advance(15.0)
        assert hub.metrics()["stall_age_s[region-b]"] == 5.0
        blob = encode_shipment(
            *_shipment_from_log(tmp_path / "b", "region-b", n_batches=6))
        hub.receive(blob)
        hub.advance(16.0)
        assert hub.metrics()["stall_age_s[region-b]"] == 0.0
