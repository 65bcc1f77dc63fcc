"""Tests for repro.soc.service -- the network ingest front door.

Covers the wire codec (hypothesis round-trip byte-identity, truncate-
anywhere torn-frame handling, CRC corruption at every byte offset --
mirroring ``test_soc_store.py``'s log-codec harness: same envelope, same
obligations), the incremental frame-stream decoder against arbitrary
chunkings, worker-core admission/ACK accounting, the tentpole
differentials (inline service mode byte-identical to driving the
in-process pipeline directly, log bytes included), SUPPRESS/RESUME
backpressure propagation, credit-based client flow control, the asyncio
server end-to-end over real sockets, multiprocess worker scaling, and
kill-a-worker crash recovery via ``recover_worker``.
"""

import asyncio
import json
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.safety import Asil
from repro.soc import (
    CorruptRecord,
    EventSource,
    FrameStreamDecoder,
    IngestService,
    SecurityEvent,
    ServiceConfig,
    VehicleClient,
    WorkerCore,
    make_event,
    recover_worker,
    serve,
    shard_for_client,
)
from repro.soc.service import (
    batch_id_of,
    decode_message,
    encode_ack,
    encode_auth,
    encode_batch,
    encode_bye,
    encode_challenge,
    encode_hello,
    encode_refused,
    encode_resume,
    encode_suppress,
    encode_welcome,
    worker_root,
)
from repro.soc.store import FRAME_HEADER, canonical_dumps, frame_payload


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


event_batches = st.lists(security_events(), max_size=8)


# ----------------------------------------------------------------------
# Wire codec: round trip, torn frames, CRC corruption
# ----------------------------------------------------------------------
class TestWireCodec:
    @given(batch_id=st.integers(min_value=0, max_value=2**53),
           events=event_batches)
    @settings(max_examples=150, deadline=None)
    def test_batch_round_trip_byte_identical(self, batch_id, events):
        payload = encode_batch(batch_id, events)
        tag, decoded_id, decoded = decode_message(payload)
        assert tag == "e"
        assert decoded_id == batch_id
        assert decoded == events
        # Canonical: re-encoding the decoded batch reproduces the bytes,
        # so wire bytes are log bytes are shipment bytes.
        assert encode_batch(decoded_id, decoded) == payload
        assert batch_id_of(payload) == batch_id

    @given(events=event_batches)
    @settings(max_examples=50, deadline=None)
    def test_framed_round_trip_through_stream_decoder(self, events):
        payload = encode_batch(3, events)
        decoder = FrameStreamDecoder()
        assert decoder.feed(frame_payload(payload)) == [payload]

    def test_control_messages_round_trip(self):
        assert decode_message(encode_hello("veh-1")) == ("h", "veh-1", 1)
        assert decode_message(encode_welcome(2, 4, 8)) == ("w", 2, 4, 8)
        assert decode_message(encode_ack(7, 5, 1)) == ("a", 7, 5, 1)
        assert decode_message(encode_suppress()) == ("s",)
        assert decode_message(encode_resume()) == ("r",)
        assert decode_message(encode_bye()) == ("q",)
        nonce = bytes(range(16))
        assert decode_message(encode_challenge(nonce)) == ("c", nonce.hex())
        tag = bytes(range(16, 32))
        assert decode_message(encode_auth(tag)) == ("u", tag.hex())
        assert decode_message(encode_refused(9, 1)) == ("n", 9, 1)

    @pytest.mark.parametrize("payload", [
        b"not json at all",
        canonical_dumps(["z", 1]),          # unknown tag
        canonical_dumps({"tag": "e"}),      # wrong shape
        canonical_dumps(["e", 1, ["bad"]]),  # malformed event obj
        canonical_dumps([]),                # empty
    ])
    def test_garbage_payloads_rejected_whole(self, payload):
        with pytest.raises(CorruptRecord):
            decode_message(payload)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncate_anywhere_never_yields_partial_frame(self, data):
        events = data.draw(st.lists(security_events(), min_size=1,
                                    max_size=4), label="events")
        payloads = [encode_batch(i, events) for i in range(3)]
        stream = b"".join(frame_payload(p) for p in payloads)
        boundaries = []
        offset = 0
        for p in payloads:
            offset += FRAME_HEADER.size + len(p)
            boundaries.append(offset)
        cut = data.draw(st.integers(min_value=0, max_value=len(stream) - 1),
                        label="cut")
        decoder = FrameStreamDecoder()
        out = decoder.feed(stream[:cut])
        whole = sum(1 for end in boundaries if end <= cut)
        # Exactly the whole frames decode; the torn tail stays buffered.
        assert out == payloads[:whole]
        assert decoder.pending_bytes == cut - (
            boundaries[whole - 1] if whole else 0)
        # ... and the rest of the stream completes it losslessly.
        assert decoder.feed(stream[cut:]) == payloads[whole:]
        assert decoder.pending_bytes == 0

    def test_crc_corruption_at_every_byte_offset(self):
        payload = encode_batch(1, [ev("v1", "sig.a", 1.0, 1)])
        frame = frame_payload(payload)
        for offset in range(len(frame)):
            blob = bytearray(frame)
            blob[offset] ^= 0xFF
            decoder = FrameStreamDecoder()
            corrupt_len = int.from_bytes(blob[:4], "little")
            if offset < 4 and corrupt_len > len(payload):
                # A corrupted length field claims a longer frame: the
                # decoder must keep waiting (torn), or -- past the size
                # cap -- reject.  Feeding padding forces the verdict.
                try:
                    out = decoder.feed(bytes(blob) + b"\0" * 64)
                except CorruptRecord:
                    continue
                assert out == []  # still waiting on the phantom tail
                continue
            with pytest.raises(CorruptRecord):
                decoder.feed(bytes(blob))

    def test_oversize_length_field_rejected(self):
        decoder = FrameStreamDecoder(max_frame_bytes=64)
        header = (1 << 20).to_bytes(4, "little") + b"\0\0\0\0"
        with pytest.raises(CorruptRecord):
            decoder.feed(header)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mid_suppress_disconnect_property(self, data):
        """A transport may start closing at ANY point in an arbitrary
        route/flush/poll interleaving -- including mid-SUPPRESS, with
        the shard transitioning around it.  The service must never
        write to the closing transport, must keep the surviving
        connection's SUPPRESS/RESUME wire state consistent with the
        shard's, and must keep its flow accounting conserved."""

        class _Writer:
            def __init__(self):
                self.closing = False
                self.frames = 0

            def is_closing(self):
                return self.closing

            def write(self, blob):
                assert not self.closing, "write to a closing transport"
                self.frames += 1

        svc = IngestService(1, mode="inline", suppress_after=1,
                            resume_below=1, clock=lambda: 100.0)
        live_w, dying_w = _Writer(), _Writer()
        live = svc.open_conn("veh-live", live_w)
        dying = svc.open_conn("veh-dying", dying_w)
        steps = data.draw(st.lists(
            st.sampled_from(["route", "flush", "poll", "disconnect"]),
            min_size=1, max_size=24), label="steps")
        batch_no = 0
        for step in steps:
            if step == "route":
                conn = data.draw(st.sampled_from([live, dying]),
                                 label="conn")
                svc.route(conn, encode_batch(
                    batch_no, [ev(conn.client_id, "s", 1.0, batch_no)]))
                batch_no += 1
            elif step == "flush":
                svc.flush()
            elif step == "poll":
                svc.poll_completions()
            else:
                dying_w.closing = True
        # The survivor's wire state tracks the shard; the dying conn
        # was never written to after closing (asserted in _Writer).
        assert live.suppressed == svc.suppressed(0)
        assert svc.batches_routed == (svc.batches_acked + svc.buffered()
                                      + svc.inflight_batches())

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_chunking_is_equivalent(self, data):
        events = data.draw(st.lists(security_events(), min_size=1,
                                    max_size=3), label="events")
        payloads = [encode_batch(i, events) for i in range(4)]
        stream = b"".join(frame_payload(p) for p in payloads)
        decoder = FrameStreamDecoder()
        out = []
        pos = 0
        while pos < len(stream):
            size = data.draw(st.integers(min_value=1, max_value=64),
                             label="chunk")
            out += decoder.feed(stream[pos:pos + size])
            pos += size
        assert out == payloads
        assert decoder.frames_decoded == 4
        assert decoder.bytes_fed == len(stream)


# ----------------------------------------------------------------------
# Worker core
# ----------------------------------------------------------------------
class TestWorkerCore:
    def test_handoff_admits_dispatches_and_acks(self, tmp_path):
        core = WorkerCore(0, tmp_path)
        events = [ev(f"v{i}", "sig.a", 1.0 + i * 0.01, i) for i in range(6)]
        report = core.ingest_handoff(
            100.0, [(11, "veh-a", 0, encode_batch(0, events)),
                    (12, "veh-b", 1, encode_batch(1, events[:2]))])
        assert report.acks == ((11, 0, 6, 6), (12, 1, 2, 2))
        assert report.dispatched == 8
        assert report.queue_depth == 0
        assert core.metrics()["service_handoffs"] == 1.0
        core.close()

    def test_future_events_refused_counted(self, tmp_path):
        core = WorkerCore(0, tmp_path)
        good = ev("v1", "sig.a", 1.0, 1)
        future = ev("v2", "sig.a", 999.0, 2)
        report = core.ingest_handoff(
            100.0, [(5, "veh-a", 0, encode_batch(0, [good, future]))])
        ((conn, batch_id, offered, accepted),) = report.acks
        assert (conn, batch_id, offered, accepted) == (5, 0, 2, 1)
        metrics = core.metrics()
        assert metrics["rejected_invalid"] == 1.0
        assert metrics["service_events_in"] == 2.0
        core.close()

    def test_corrupt_batch_refused_whole(self, tmp_path):
        core = WorkerCore(0, tmp_path)
        bad = canonical_dumps(["e", 9, ["not-an-event"]])
        report = core.ingest_handoff(100.0, [(3, "veh-a", 9, bad)])
        assert report.acks == ((3, 9, 0, -1),)
        assert core.decode_errors == 1
        core.close()


# ----------------------------------------------------------------------
# Inline service: differential byte-identity with the in-process path
# ----------------------------------------------------------------------
def _drive_service_and_twin(tmp_path, num_workers):
    """Feed the same deterministic stream through (a) the inline service
    and (b) direct WorkerCore twins, with identical handoff boundaries
    and clock; returns both sides' per-worker analytic states."""
    config = ServiceConfig(snapshot_every_pumps=3)
    times = iter(float(t) for t in range(100, 200))
    svc = IngestService(num_workers, mode="inline",
                        root=tmp_path / "svc", config=config,
                        clock=lambda: next(times))
    twin_times = iter(float(t) for t in range(100, 200))
    twins = [WorkerCore(i, tmp_path / "twin", config)
             for i in range(num_workers)]

    conns = [svc.open_conn(f"veh-{i:03d}") for i in range(7)]
    rounds = []
    for rnd in range(5):
        batches = []
        for i, conn in enumerate(conns):
            events = [ev(f"veh-{i:03d}", f"sig.{j % 3}",
                         rnd * 1.0 + j * 0.05, rnd * 100 + j)
                      for j in range(4)]
            payload = encode_batch(rnd, events)
            svc.route(conn, payload)
            batches.append((conn, payload))
        svc.flush()
        rounds.append(batches)
    acked = svc.poll_completions()
    assert len(acked) == 7 * 5

    # Twins: replay the identical handoffs (same grouping: one flush per
    # round drains each shard's buffer into one handoff).
    for rnd, batches in enumerate(rounds):
        per_shard = {}
        for conn, payload in batches:
            per_shard.setdefault(conn.shard, []).append(
                (conn.conn_id, conn.client_id, rnd, payload))
        t_send = next(twin_times)
        for shard in sorted(per_shard):
            twins[shard].ingest_handoff(t_send, per_shard[shard])

    svc_metrics = svc.drain_and_close()
    twin_states = [canonical_dumps(t.soc.analytics_snapshot())
                   for t in twins]
    twin_metrics = [t.metrics() for t in twins]
    for t in twins:
        t.close()
    return svc, svc_metrics, twin_states, twin_metrics


class TestInlineDifferential:
    @pytest.mark.parametrize("num_workers", [1, 2])
    def test_inline_service_byte_identical_to_direct_cores(
            self, tmp_path, num_workers):
        svc, svc_metrics, twin_states, twin_metrics = (
            _drive_service_and_twin(tmp_path, num_workers))
        for i in range(num_workers):
            recovered = recover_worker(tmp_path / "svc", i)
            assert canonical_dumps(
                recovered.analytics_snapshot()) == twin_states[i]
            # Full metrics parity: admission, dispatch, batching,
            # service counters -- the transport added nothing, lost
            # nothing (wall-clock latency keys excepted).
            skip = {"mean_dispatch_latency_s", "max_dispatch_latency_s",
                    "service_handoff_latency_max_s",
                    "service_handoff_latency_mean_s"}
            a = {k: v for k, v in svc_metrics[i].items() if k not in skip}
            b = {k: v for k, v in twin_metrics[i].items() if k not in skip}
            assert a == b

    def test_inline_service_log_bytes_identical(self, tmp_path):
        _drive_service_and_twin(tmp_path, 1)
        svc_segments = sorted(
            p for p in worker_root(tmp_path / "svc", 0).rglob("seg-*.log"))
        twin_segments = sorted(
            p for p in worker_root(tmp_path / "twin", 0).rglob("seg-*.log"))
        assert [p.name for p in svc_segments] == [
            p.name for p in twin_segments] != []
        for a, b in zip(svc_segments, twin_segments):
            assert a.read_bytes() == b.read_bytes()

    def test_frontend_and_worker_accounting_tie_out(self, tmp_path):
        svc, svc_metrics, _, _ = _drive_service_and_twin(tmp_path, 2)
        front = svc.metrics()
        assert front["batches_routed"] == front["batches_acked"] == 35.0
        worker_in = sum(m["service_events_in"] for m in svc_metrics)
        worker_admitted = sum(m["admitted"] for m in svc_metrics)
        worker_dispatched = sum(m["dispatched"] for m in svc_metrics)
        assert worker_in == 7 * 5 * 4
        assert front["events_acked"] == worker_admitted == worker_dispatched
        assert front["events_refused"] == worker_in - worker_admitted


# ----------------------------------------------------------------------
# Backpressure: SUPPRESS/RESUME propagation + client-side shedding
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_outstanding_watermark_trips_and_clears(self, tmp_path):
        svc = IngestService(1, mode="inline", root=tmp_path,
                            suppress_after=1, resume_below=1,
                            clock=lambda: 100.0)
        conn = svc.open_conn("veh-1")
        svc.route(conn, encode_batch(0, [ev("v1", "sig.a", 1.0, 1)]))
        svc.flush()
        # One outstanding handoff >= suppress_after=1: shard suppressed.
        assert svc.suppressed(0) and conn.suppressed
        svc.poll_completions()
        # Outstanding back under resume_below: resumed.
        assert not svc.suppressed(0) and not conn.suppressed
        assert svc.suppress_transitions == 2
        svc.drain_and_close()

    def test_worker_congestion_signal_propagates(self, tmp_path):
        config = ServiceConfig(queue_capacity=8, batch_size=4)
        svc = IngestService(1, mode="inline", root=tmp_path, config=config,
                            clock=lambda: 100.0)
        conn = svc.open_conn("veh-1")
        # WorkerCore samples `pipeline.congested` after admission but
        # before the pump drains: a big enough burst holds the signal.
        events = [ev(f"v{i}", "sig.a", 1.0 + i * 1e-3, i) for i in range(8)]
        svc.route(conn, encode_batch(0, events))
        svc.flush()
        svc.poll_completions()
        assert svc.suppressed(0)  # worker reported congestion
        # A tiny follow-up batch drains below watermark: RESUME.
        svc.route(conn, encode_batch(1, events[:1]))
        svc.flush()
        svc.poll_completions()
        assert not svc.suppressed(0)
        svc.drain_and_close()

    def test_late_joiner_inherits_suppression(self, tmp_path):
        svc = IngestService(1, mode="inline", root=tmp_path,
                            suppress_after=1, clock=lambda: 100.0)
        first = svc.open_conn("veh-1")
        svc.route(first, encode_batch(0, [ev("v1", "sig.a", 1.0, 1)]))
        svc.flush()
        assert svc.suppressed(0)
        late = svc.open_conn("veh-2")
        assert late.suppressed
        svc.drain_and_close()

    def test_client_sheds_low_severity_under_suppression(self):
        client = VehicleClient("veh-1")
        client.suppressed = True
        client.credits = 5

        async def run():
            low = [ev("veh-1", "s", 1.0, i, severity=Asil.A)
                   for i in range(3)]
            assert await client.send_events(low) is None
            assert client.suppressed_at_source == 3
            assert client.batches_sent == 0

        asyncio.run(run())

    def test_suppression_never_mutes_high_severity(self):
        client = VehicleClient("veh-1")
        client.suppressed = True
        client.credits = 5
        sent_frames = []

        class _W:
            def is_closing(self):
                return False

            def write(self, data):
                sent_frames.append(data)

        client._writer = _W()

        async def run():
            mixed = [ev("veh-1", "s", 1.0, 0, severity=Asil.A),
                     ev("veh-1", "s", 1.1, 1, severity=Asil.D)]
            batch_id = await client.send_events(mixed)
            assert batch_id == 0
            assert client.suppressed_at_source == 1
            assert client.events_sent == 1

        asyncio.run(run())
        decoder = FrameStreamDecoder()
        (payload,) = decoder.feed(sent_frames[0])
        _, _, events = decode_message(payload)
        assert [e.severity for e in events] == [Asil.D]


# ----------------------------------------------------------------------
# End-to-end over real sockets
# ----------------------------------------------------------------------
def _run_e2e(tmp_path, mode, num_workers, n_clients=8, rounds=6,
             per_batch=10):
    async def main():
        svc = IngestService(num_workers, mode=mode, root=tmp_path,
                            config=ServiceConfig(snapshot_every_pumps=8))
        server = await serve(svc)
        clients = [VehicleClient(f"veh-{i:03d}", port=server.port)
                   for i in range(n_clients)]
        for c in clients:
            await c.connect()
            assert c.shard == shard_for_client(c.client_id, num_workers)
        for rnd in range(rounds):
            for i, c in enumerate(clients):
                events = [ev(c.client_id, f"sig.{rnd % 3}",
                             rnd * 1.0 + j * 0.01, rnd * 1000 + j)
                          for j in range(per_batch)]
                await c.send_events(events)
        for c in clients:
            await c.drain()
        stats = {
            "sent": sum(c.events_sent for c in clients),
            "accepted": sum(c.events_accepted for c in clients),
            "rtts": sum(len(c.rtts_s) for c in clients),
        }
        for c in clients:
            await c.close()
        worker_metrics = await server.stop()
        return svc, stats, worker_metrics

    return asyncio.run(main())


class TestEndToEnd:
    def test_inline_server_round_trip(self, tmp_path):
        svc, stats, worker_metrics = _run_e2e(tmp_path, "inline", 2)
        assert stats["sent"] == 8 * 6 * 10
        assert stats["accepted"] == stats["sent"]  # nothing shed, all acked
        assert stats["rtts"] == 8 * 6
        assert sum(m["service_events_in"]
                   for m in worker_metrics) == stats["sent"]
        assert sum(m["dispatched"] for m in worker_metrics) == stats["sent"]

    def test_process_server_round_trip_and_recovery(self, tmp_path):
        svc, stats, worker_metrics = _run_e2e(tmp_path, "process", 2)
        assert stats["accepted"] == stats["sent"] == 8 * 6 * 10
        assert sum(m["dispatched"] for m in worker_metrics) == stats["sent"]
        # Every worker's durable store recovers to the state it reported.
        for i, metrics in enumerate(worker_metrics):
            recovered = recover_worker(tmp_path, i)
            assert recovered.pump_no == int(metrics["service_handoffs"])
            assert recovered.replayed_events == 0  # final snapshot covers all

    def test_corrupt_client_payload_drops_connection(self, tmp_path):
        async def main():
            svc = IngestService(1, mode="inline", root=tmp_path)
            server = await serve(svc)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(frame_payload(encode_hello("veh-evil")))
            # A framed BATCH whose events are garbage: the worker refuses
            # it whole and the server drops the connection.
            writer.write(frame_payload(
                canonical_dumps(["e", 0, ["not-an-event"]])))
            await writer.drain()
            got = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            await server.stop()
            return got, svc

        got, svc = asyncio.run(main())
        decoder = FrameStreamDecoder()
        msgs = [decode_message(p) for p in decoder.feed(got)]
        assert msgs[0][0] == "w"          # WELCOME arrived
        assert all(m[0] != "a" for m in msgs)  # never ACKed
        assert svc.metrics()["connections"] == 0


# ----------------------------------------------------------------------
# Kill a worker, recover its analytic state
# ----------------------------------------------------------------------
class TestKillRecovery:
    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_killed_worker_recovers_to_identical_state(
            self, tmp_path, mode):
        config = ServiceConfig(snapshot_every_pumps=2)
        svc = IngestService(2, mode=mode, root=tmp_path / "svc",
                            config=config, queue_max_handoffs=4)
        twin = WorkerCore(0, tmp_path / "twin", config)
        conn = svc.open_conn("veh-000")
        victim = conn.shard

        for rnd in range(5):
            events = [ev("veh-000", f"sig.{j % 2}", rnd + j * 0.1,
                         rnd * 10 + j) for j in range(5)]
            payload = encode_batch(rnd, events)
            svc.route(conn, payload)
            svc.flush()
            # Quiesce: the handoff is acked (and therefore logged) before
            # the next, so the twin sees the exact same pump boundaries.
            deadline = 200
            while svc.metrics()["batches_acked"] < rnd + 1 and deadline:
                svc.poll_completions(timeout=0.05)
                deadline -= 1
            assert deadline, "handoff never acked"
            twin.ingest_handoff(1000.0 + rnd,
                                [(conn.conn_id, conn.client_id, rnd, payload)])

        # SIGKILL (process mode) / drop (inline): no snapshot, no close.
        svc.kill_worker(victim)
        recovered = recover_worker(tmp_path / "svc", victim)
        twin_state = canonical_dumps(twin.soc.analytics_snapshot())
        assert canonical_dumps(recovered.analytics_snapshot()) == twin_state
        # The recovery replayed the log suffix past the last periodic
        # snapshot (snapshot_every_pumps=2, 5 pumps -> 1 replayed).
        assert recovered.pump_no == 5
        assert recovered.replayed_pumps == 1
        twin.close()
        svc.drain_and_close()


# ----------------------------------------------------------------------
# Service plumbing details
# ----------------------------------------------------------------------
class TestServicePlumbing:
    def test_shard_for_client_is_stable_and_uniform_enough(self):
        assert shard_for_client("veh-1", 1) == 0
        assert shard_for_client("veh-1", 4) == zlib.crc32(b"veh-1") % 4
        hit = {shard_for_client(f"veh-{i:04d}", 4) for i in range(64)}
        assert hit == {0, 1, 2, 3}

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            IngestService(0, mode="inline", root=tmp_path)
        with pytest.raises(ValueError):
            IngestService(1, mode="threads", root=tmp_path)

    def test_full_feed_queue_refuses_and_suppresses(self, tmp_path):
        svc = IngestService(1, mode="inline", root=tmp_path,
                            clock=lambda: 100.0)

        class _FullBackend:
            mode = "inline"

            def submit(self, *a):
                return False

        real = svc.backend
        svc.backend = _FullBackend()
        conn = svc.open_conn("veh-1")
        svc.route(conn, encode_batch(0, [ev("v1", "s", 1.0, 1)]))
        assert svc.flush() == 0
        assert svc.submit_refusals == 1
        assert svc.buffered(0) == 1  # kept, not dropped
        svc.backend = real
        assert svc.flush() == 1
        svc.poll_completions()
        svc.drain_and_close()

    def test_handoff_batch_threshold_triggers_flush(self, tmp_path):
        svc = IngestService(1, mode="inline", root=tmp_path,
                            handoff_batch=2, clock=lambda: 100.0)
        conn = svc.open_conn("veh-1")
        svc.route(conn, encode_batch(0, [ev("v1", "s", 1.0, 1)]))
        assert svc.maybe_flush(conn.shard) == 0  # below threshold
        svc.route(conn, encode_batch(1, [ev("v1", "s", 1.1, 2)]))
        assert svc.maybe_flush(conn.shard) == 1
        svc.poll_completions()
        svc.drain_and_close()

    def test_drain_and_close_is_idempotent(self, tmp_path):
        svc = IngestService(1, mode="inline", root=tmp_path,
                            clock=lambda: 100.0)
        first = svc.drain_and_close()
        assert svc.drain_and_close() is first or svc.drain_and_close() == first
