"""Tests for repro.soc.service -- the network ingest front door.

Covers the wire codec (hypothesis round-trip byte-identity, truncate-
anywhere torn-frame handling, CRC corruption at every byte offset --
mirroring ``test_soc_store.py``'s log-codec harness: same envelope, same
obligations), the incremental frame-stream decoder against arbitrary
chunkings, worker-core admission/ACK accounting, the tentpole
differentials (inline service mode byte-identical to driving the
in-process pipeline directly, log bytes included), SUPPRESS/RESUME
backpressure propagation, credit-based client flow control, the asyncio
server end-to-end over real sockets, multiprocess worker scaling,
kill-a-worker crash recovery via ``recover_worker``, and shutdown: every
service call on the loop thread, nothing stranded or un-ACKed by stop.
"""

import asyncio
import gc
import json
import threading
import time
import weakref
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.safety import Asil
from repro.soc import (
    CorruptRecord,
    EventSource,
    FrameStreamDecoder,
    IngestServer,
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
from repro.soc import service
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
    seal_payload,
    worker_root,
)
from repro.soc.store import FRAME_HEADER, canonical_dumps, frame_payload


def ev(vehicle, sig, time, seq, severity=Asil.B):
    return make_event(vehicle, EventSource.IDS, sig, time, seq,
                      severity=severity)


async def send_events(client, events):
    """Send ``events`` as one BATCH (sealed when the client has a
    session key), its id the count of batches the client has sent, as
    programs send pre-encoded payloads."""
    payload = encode_batch(client.batches_sent, events)
    if client.session_key is not None:
        payload = seal_payload(client.session_key, client.client_id, payload)
    return await client.send_payload(payload, len(events))


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

    def test_oversize_length_field_rejected(self, monkeypatch):
        monkeypatch.setattr(service, "MAX_FRAME_BYTES", 64)
        decoder = FrameStreamDecoder()
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

        with pytest.MonkeyPatch.context() as patches:
            patches.setattr(service, "SUPPRESS_AFTER", 1)
            patches.setattr(service, "RESUME_BELOW", 1)
            svc = IngestService(1, mode="inline", clock=lambda: 100.0)
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
        assert decoder.bytes_fed == len(stream)

    @given(payloads=st.lists(st.binary(max_size=80), min_size=1, max_size=6),
           cuts=st.lists(st.integers(min_value=0), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_frames_cut_anywhere_decode_exactly(self, payloads, cuts):
        """Any payloads, framed and fed in pieces cut at arbitrary
        points, come out exactly once and in order; ``bytes_fed``
        counts every accepted byte and ``bytes_rejected`` only the data
        that provoked a rejection."""
        stream = b"".join(frame_payload(p) for p in payloads)
        points = sorted({c % (len(stream) + 1) for c in cuts}
                        | {0, len(stream)})
        decoder = FrameStreamDecoder()
        out = []
        for start, end in zip(points, points[1:]):
            out += decoder.feed(stream[start:end])
            assert decoder.bytes_fed == end
        assert out == payloads
        assert decoder.pending_bytes == 0
        assert decoder.bytes_rejected == 0
        bad = bytearray(frame_payload(b"x" + payloads[0]))
        bad[-1] ^= 0xFF
        with pytest.raises(CorruptRecord):
            decoder.feed(bytes(bad))
        assert decoder.bytes_rejected == len(bad)
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
        assert core.events_dispatched == 8
        assert core.soc.pipeline.queue_depth == 0
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
    def test_outstanding_watermark_trips_and_clears(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(service, "SUPPRESS_AFTER", 1)
        monkeypatch.setattr(service, "RESUME_BELOW", 1)
        svc = IngestService(1, mode="inline", root=tmp_path,
                            clock=lambda: 100.0)
        conn = svc.open_conn("veh-1")
        svc.route(conn, encode_batch(0, [ev("v1", "sig.a", 1.0, 1)]))
        svc.flush()
        # One outstanding handoff >= SUPPRESS_AFTER=1: shard suppressed.
        assert svc.suppressed(0) and conn.suppressed
        svc.poll_completions()
        # Outstanding back under RESUME_BELOW: resumed.
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

    def test_late_joiner_inherits_suppression(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service, "SUPPRESS_AFTER", 1)
        svc = IngestService(1, mode="inline", root=tmp_path,
                            clock=lambda: 100.0)
        first = svc.open_conn("veh-1")
        svc.route(first, encode_batch(0, [ev("v1", "sig.a", 1.0, 1)]))
        svc.flush()
        assert svc.suppressed(0)
        late = svc.open_conn("veh-2")
        assert late.suppressed
        svc.drain_and_close()


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
                await send_events(c, events)
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
            self, tmp_path, monkeypatch, mode):
        monkeypatch.setattr(service, "QUEUE_MAX_HANDOFFS", 4)
        config = ServiceConfig(snapshot_every_pumps=2)
        svc = IngestService(2, mode=mode, root=tmp_path / "svc",
                            config=config)
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
        svc.sigkill_worker(victim)
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

    def test_handoff_batch_threshold_triggers_flush(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(service, "HANDOFF_BATCH", 2)
        svc = IngestService(1, mode="inline", root=tmp_path,
                            clock=lambda: 100.0)
        conn = svc.open_conn("veh-1")
        svc.route(conn, encode_batch(0, [ev("v1", "s", 1.0, 1)]))
        svc.group_commit(conn.shard)
        assert svc.handoffs_submitted == 0  # below threshold, no loop
        svc.route(conn, encode_batch(1, [ev("v1", "s", 1.1, 2)]))
        svc.group_commit(conn.shard)
        assert svc.handoffs_submitted == 1
        svc.poll_completions()
        svc.drain_and_close()

    def test_drain_and_close_is_idempotent(self, tmp_path):
        svc = IngestService(1, mode="inline", root=tmp_path,
                            clock=lambda: 100.0)
        first = svc.drain_and_close()
        assert svc.drain_and_close() is first or svc.drain_and_close() == first


# ----------------------------------------------------------------------
# Shutdown: one thread owns the front door, and stop strands nothing
# ----------------------------------------------------------------------
SPIED = ("route", "flush", "apply_report", "check_workers")


def _stop_while_sending(monkeypatch, root, mode, handoff_batch):
    """Serve one client that streams batches and call ``stop()`` as soon
    as the first batch is routed.  Returns the service, the client and
    ``(method, thread id)`` for every call to a :data:`SPIED` method."""
    calls = []
    monkeypatch.setattr(service, "HANDOFF_BATCH", handoff_batch)

    async def main():
        svc = IngestService(1, mode=mode, root=root)
        routed = asyncio.Event()
        for name in SPIED:
            def spy(*args, _real=getattr(svc, name), _name=name):
                calls.append((_name, threading.get_ident()))
                if _name == "route":
                    routed.set()
                return _real(*args)
            setattr(svc, name, spy)
        server = IngestServer(svc)
        await server.start()
        client = VehicleClient("veh-1", port=server.port)
        await client.connect()

        async def send():
            try:
                for rnd in range(40):
                    await send_events(client, [
                        ev("veh-1", f"sig.{rnd % 3}", 0.1 * rnd, rnd)])
            except ConnectionError:
                pass  # stop closed the session

        sender = asyncio.create_task(send())
        await routed.wait()
        await server.stop()
        # Returns once every batch is acked or the server's close has
        # reached the client, after every frame sent before it.
        await asyncio.wait_for(client.drain(), timeout=30.0)
        await asyncio.wait_for(sender, timeout=30.0)
        await client.close()
        return svc, client

    svc, client = asyncio.run(main())
    return svc, client, calls


MODES_AND_HANDOFFS = [("inline", 1), ("inline", 64),
                      ("process", 1), ("process", 64)]


class TestShutdown:
    @pytest.mark.parametrize("mode,handoff_batch", MODES_AND_HANDOFFS)
    def test_stop_while_sending_acks_every_routed_batch(
            self, tmp_path, monkeypatch, mode, handoff_batch):
        """Regression: stop() drained on an executor thread while the
        loop kept reading the session, and the drain wrote no ACK.  The
        conservation audit failed inline (the loop appended to a buffer
        the drain was handing off), and routed batches were acked by the
        service but never answered on the wire."""
        svc, client, _ = _stop_while_sending(monkeypatch, tmp_path, mode,
                                             handoff_batch)
        svc.audit_conservation()
        assert svc.buffered() == svc.inflight_batches() == 0
        assert svc.batches_routed >= 1
        assert svc.batches_acked == svc.batches_routed
        assert len(client.rtts_s) == svc.batches_routed
        assert client.events_accepted == svc.events_acked

    @pytest.mark.parametrize("mode,handoff_batch", MODES_AND_HANDOFFS)
    def test_every_service_call_runs_on_the_loop_thread(
            self, tmp_path, monkeypatch, mode, handoff_batch):
        """Regression: a collector thread read worker reports, and
        stop() ran ``drain_and_close`` -- flush, apply_report,
        check_workers -- on an executor thread, writing SUPPRESS/RESUME
        to transports from there."""
        _, _, calls = _stop_while_sending(monkeypatch, tmp_path, mode,
                                          handoff_batch)
        assert {name for name, _ in calls} == set(SPIED)
        assert {ident for _, ident in calls} == {threading.get_ident()}

    def test_silent_client_before_hello_does_not_delay_stop(self, tmp_path):
        """Regression (Python 3.12, whose ``Server.wait_closed`` waits
        for every connection): a client silent before HELLO held stop()
        until its handshake deadline and counted a timeout."""
        async def main():
            svc = IngestService(1, mode="inline", root=tmp_path)
            server = await serve(svc)
            _, silent = await asyncio.open_connection(
                "127.0.0.1", server.port)
            # Connections are accepted in order: once a later client is
            # welcomed, the silent one holds its half-open slot.
            client = VehicleClient("veh-1", port=server.port)
            await client.connect()
            assert len(svc.handshakes) == 1
            t0 = time.monotonic()
            await server.stop()
            elapsed = time.monotonic() - t0
            silent.close()
            await client.close()
            return svc, elapsed

        svc, elapsed = asyncio.run(main())
        assert elapsed < 1.0
        assert svc.handshake_timeouts == 0
        assert not svc.handshakes and not svc.conns

    def test_stop_releases_the_service(self, tmp_path):
        """Regression: the server armed a handshake-deadline timer per
        accepted connection and never cancelled it, so every
        ``ConnProtocol`` -- and through it the whole service -- stayed
        reachable for ``HANDSHAKE_TIMEOUT_S`` after ``stop()``.  A quota
        timer (here ~800 s out) and a flush scheduled for a batch routed
        just before ``stop()`` must not hold it either."""
        async def main():
            svc = IngestService(1, mode="inline", root=tmp_path,
                                quota_bytes_per_s=1.0,
                                quota_burst_bytes=2000.0)
            routed = asyncio.Event()
            real_route = svc.route

            def route(conn, payload):
                accepted = real_route(conn, payload)
                if conn.client_id == "veh-1" and conn.batches == 2:
                    routed.set()
                return accepted
            svc.route = route
            server = await serve(svc)
            _, silent = await asyncio.open_connection(
                "127.0.0.1", server.port)
            client = VehicleClient("veh-1", port=server.port)
            await client.connect()
            await send_events(client, [ev("veh-1", "sig.0", 1.0, 1)])
            await asyncio.wait_for(client.drain(), timeout=30.0)
            hog = VehicleClient("veh-hog", port=server.port)
            await hog.connect()
            for rnd in range(20):
                await send_events(hog, [ev("veh-hog", f"sig.{j}", 1.0, j)
                                        for j in range(3)])
                await asyncio.sleep(0.01)
                if hog.batches_refused:
                    break
            assert hog.suppressed and hog.batches_refused == 1
            assert len(svc.handshakes) == 1    # the silent handshake
            await send_events(client, [ev("veh-1", "sig.0", 2.0, 2)])
            await asyncio.wait_for(routed.wait(), timeout=30.0)
            await server.stop()                # before the turn's flush
            await asyncio.wait_for(client.drain(), timeout=30.0)
            assert len(client.rtts_s) == 2
            await client.close()
            await hog.close()
            silent.close()
            ref = weakref.ref(svc)
            del svc, server, route, real_route
            gc.collect()
            return ref()

        assert asyncio.run(main()) is None

    def test_loop_reads_reports_across_a_worker_restart(self, tmp_path,
                                                        monkeypatch):
        """With the pump idle only the loop's reader on a worker's
        completion pipe can deliver an ACK; after the supervisor
        restarts the worker, the reader follows it to the fresh pipe."""
        monkeypatch.setattr(service, "HANDOFF_BATCH", 1)
    
        async def main():
            svc = IngestService(1, mode="process", root=tmp_path)
            server = IngestServer(svc)
            await server.start()
            client = VehicleClient("veh-1", port=server.port)
            await client.connect()
            await send_events(client, [ev("veh-1", "sig.0", 1.0, 1)])
            await asyncio.wait_for(client.drain(), timeout=30.0)
            svc.sigkill_worker(0)
            assert svc.check_workers() == 1
            await send_events(client, [ev("veh-1", "sig.0", 2.0, 2)])
            await asyncio.wait_for(client.drain(), timeout=30.0)
            await client.close()
            await server.stop()
            return svc, client

        svc, client = asyncio.run(main())
        assert len(client.rtts_s) == 2
        assert svc.batches_acked == svc.batches_routed == 2
        assert svc.worker_restarts == 1


# ----------------------------------------------------------------------
# The event-driven front door: each handoff, report, restart and quota
# lift has one trigger, and an idle server has nothing to do
# ----------------------------------------------------------------------
def _live_callbacks(loop):
    """What the loop would run without I/O: the callbacks of its timers
    not cancelled, and of its ready handles."""
    return [h._callback for h in list(loop._scheduled) + list(loop._ready)
            if not h.cancelled()]


def _idle_cpu_s(seconds=0.5):
    async def idle():
        t0 = time.process_time()
        await asyncio.sleep(seconds)
        return time.process_time() - t0
    return idle()


class TestFrontDoorEvents:
    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_idle_server_schedules_nothing_and_burns_no_cpu(self, tmp_path,
                                                            mode):
        """Regression: a 2 ms pump task flushed, polled and supervised
        whether or not anything happened -- ~7% of a core on an idle
        process-mode server."""
        async def main():
            svc = IngestService(1, mode=mode, root=tmp_path)
            server = await serve(svc)
            client = VehicleClient("veh-1", port=server.port)
            await client.connect()
            await send_events(client, [ev("veh-1", "sig.0", 1.0, 1)])
            await asyncio.wait_for(client.drain(), timeout=30.0)
            _, silent = await asyncio.open_connection(
                "127.0.0.1", server.port)
            while not svc.handshakes:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)          # let the loop settle
            loop = asyncio.get_running_loop()
            pending = _live_callbacks(loop)
            cpu_s = await _idle_cpu_s()
            await client.close()
            await server.stop()
            silent.close()
            return pending, cpu_s

        pending, cpu_s = asyncio.run(main())
        # Only the silent connection's handshake timer.
        assert [callback.__func__ for callback in pending] == [
            service.ConnProtocol.tick]
        assert cpu_s < 0.01

    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_dead_worker_restarts_without_a_supervisor_call(self, tmp_path,
                                                            mode):
        async def main():
            svc = IngestService(1, mode=mode, root=tmp_path)
            server = await serve(svc)
            svc.sigkill_worker(0)
            deadline = time.monotonic() + 30.0
            while not svc.worker_restarts:
                assert time.monotonic() < deadline, "worker never restarted"
                await asyncio.sleep(0.01)
            client = VehicleClient("veh-1", port=server.port)
            await client.connect()
            await send_events(client, [ev("veh-1", "sig.0", 1.0, 1)])
            await asyncio.wait_for(client.drain(), timeout=30.0)
            await client.close()
            await server.stop()
            return svc, client

        svc, client = asyncio.run(main())
        assert svc.worker_restarts == 1
        assert len(client.rtts_s) == svc.batches_acked == 1

    def test_dead_worker_without_a_root_does_not_spin(self):
        """Without a root nothing restarts a worker, and its sentinel
        stays readable: the loop must hear of the death once, not spin."""
        calls = []

        async def main():
            svc = IngestService(1, mode="process")
            real = svc.check_workers
            svc.check_workers = lambda: calls.append(1) or real()
            server = await serve(svc)
            svc.sigkill_worker(0)
            cpu_s = await _idle_cpu_s()
            await server.stop()
            return svc, cpu_s

        svc, cpu_s = asyncio.run(main())
        assert svc.worker_restarts == 0
        assert len(calls) == 1                 # one notice of the death
        assert cpu_s < 0.05

    def test_quota_lift_resumes_a_silent_client(self, tmp_path):
        """A client SUPPRESSed by its quota that then sends nothing gets
        RESUME when its bucket is half full, from the quota timer."""
        rate, burst = 2000.0, 1000.0

        async def main():
            svc = IngestService(1, mode="inline", root=tmp_path,
                                quota_bytes_per_s=rate,
                                quota_burst_bytes=burst)
            server = await serve(svc)
            client = VehicleClient("veh-1", port=server.port)
            await client.connect()
            events = [ev("veh-1", f"sig.{j}", 1.0, j) for j in range(2)]
            size = len(encode_batch(0, events))
            while not client.batches_refused:
                await send_events(client, events)
            assert client.suppressed
            t0 = time.monotonic()
            while client.suppressed:
                assert time.monotonic() - t0 < 10.0, "no RESUME"
                await asyncio.sleep(0.005)
            waited = time.monotonic() - t0
            await client.close()
            await server.stop()
            return svc, size, waited

        svc, size, waited = asyncio.run(main())
        assert svc.quota_refused >= 1
        # Refused below one batch's bytes; resumed at half the burst (less
        # the lag before this client read its REFUSED).
        assert waited >= (burst / 2.0 - size) / rate - 0.05
