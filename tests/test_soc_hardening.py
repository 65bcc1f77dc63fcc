"""Tests for the hardened ingest front door (repro.soc.service).

Covers the three hardening layers -- CMAC-authenticated sessions
(HELLO/CHALLENGE/AUTH handshake, per-batch tag trailers verified by the
owning worker), per-client token-bucket quotas feeding targeted
SUPPRESS/REFUSED, and supervised worker auto-restart (exactly-once
replay from the handoff journal, byte-identical to an uninterrupted
twin) -- plus the pinned regressions for the frontend robustness
bugfixes: malformed-BATCH ``CorruptRecord`` translation, stale SUPPRESS
after ``kill_worker``, monotonic deadlines/latency, and the
closing-transport write guard.
"""

import asyncio
import inspect
import json
import time

import pytest

from repro.core.safety import Asil
from repro.soc import (
    CorruptRecord,
    EventSource,
    FrameStreamDecoder,
    IngestService,
    ServiceConfig,
    VehicleClient,
    WorkerCore,
    make_event,
    recover_worker,
    serve,
)
from repro.soc.ingest import TokenBucket
from repro.soc.service import (
    _HandoffJournal,
    _ProcessBackend,
    auth_tag,
    batch_id_of,
    batch_tag,
    derive_session_key,
    encode_auth,
    encode_batch,
    encode_hello,
    seal_payload,
    worker_root,
)
from repro.soc.shard import ConservationError
from repro.soc.store import EventLog, canonical_dumps, frame_payload

FLEET_KEY = b"\x42" * 16


def ev(vehicle, sig, t, seq, severity=Asil.C):
    return make_event(vehicle, EventSource.IDS, sig, t, seq,
                      severity=severity)


def batch(vehicle, rnd, n=3, t0=900.0):
    return encode_batch(rnd, [
        ev(vehicle, f"sig.{i % 4}", t0 + rnd + 0.01 * i, rnd * 100 + i)
        for i in range(n)])


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_starts_full_and_is_all_or_nothing(self):
        b = TokenBucket(rate=10.0, burst=100.0, now=0.0)
        assert b.level(0.0) == 100.0
        assert b.try_take(100.0, 0.0)
        assert not b.try_take(1.0, 0.0)   # empty: refuse whole amount
        assert b.level(0.0) == 0.0        # a refused take consumed nothing

    def test_refill_is_rate_limited_and_capped_at_burst(self):
        b = TokenBucket(rate=10.0, burst=100.0, now=0.0)
        assert b.try_take(100.0, 0.0)
        assert b.level(5.0) == 50.0       # 5s * 10/s
        assert b.level(1000.0) == 100.0   # capped at burst, not 10000
        assert b.try_take(60.0, 1000.0)
        assert not b.try_take(60.0, 1000.0)

    def test_time_never_runs_backwards(self):
        b = TokenBucket(rate=10.0, burst=100.0, now=50.0)
        assert b.try_take(100.0, 50.0)
        # An earlier timestamp must not mint tokens (or crash).
        assert b.level(0.0) == 0.0
        assert not b.try_take(1.0, 0.0)

    @pytest.mark.parametrize("rate,burst", [(0.0, 1.0), (-1.0, 1.0),
                                            (1.0, 0.0), (1.0, -5.0)])
    def test_constructor_validation(self, rate, burst):
        with pytest.raises(ValueError):
            TokenBucket(rate=rate, burst=burst)


# ----------------------------------------------------------------------
# Pinned regression: malformed BATCH payloads raise CorruptRecord
# ----------------------------------------------------------------------
class TestBatchIdOfRegression:
    """``batch_id_of`` used to leak a bare ``ValueError`` on malformed
    payloads, killing the reader coroutine instead of taking the one
    deliberate drop-the-connection path."""

    @pytest.mark.parametrize("payload", [
        b'["e"]',                 # missing comma: no id field at all
        b'["e",',                 # first comma, then nothing
        b'["e",12',               # no second comma to terminate the id
        b'["e",xyz,[]]',          # non-integer id
        b'["e",1.5e,[]]',         # unparseable number
        b'',                      # empty
    ])
    def test_malformed_payload_raises_corrupt_record(self, payload):
        with pytest.raises(CorruptRecord):
            batch_id_of(payload)

    def test_malformed_payload_never_raises_bare_value_error(self):
        try:
            batch_id_of(b'["e",bogus,[]]')
        except CorruptRecord:
            pass  # the classified error -- a subclass of RuntimeError
        # (a bare ValueError would have propagated past the except above)

    def test_route_translates_and_server_drops_deliberately(self, tmp_path):
        async def main():
            svc = IngestService(1, mode="inline", root=tmp_path)
            server = await serve(svc)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(frame_payload(encode_hello("veh-mal")))
            # Frames fine, JSON-shaped enough for the '["e"' fast path,
            # but the batch id is not scannable.
            writer.write(frame_payload(b'["e",bogus,[]]'))
            await writer.drain()
            got = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            await server.stop()
            return got, svc

        got, svc = asyncio.run(main())
        assert got  # WELCOME arrived, then the server closed on us
        assert svc.protocol_errors == 1
        assert svc.metrics()["connections"] == 0
        assert svc.batches_routed == 0  # never buffered


# ----------------------------------------------------------------------
# Pinned regression: decoder byte accounting under rejection
# ----------------------------------------------------------------------
class TestDecoderRejectedBytes:
    """``bytes_fed`` used to count data that provoked a CorruptRecord,
    letting an attacker's oversized-header probe inflate the accepted-
    byte accounting the pre-auth cap reads."""

    def test_rejected_bytes_counted_separately(self):
        decoder = FrameStreamDecoder(max_frame_bytes=64)
        probe = (1 << 20).to_bytes(4, "little") + b"\0\0\0\0"
        with pytest.raises(CorruptRecord):
            decoder.feed(probe)
        assert decoder.bytes_fed == 0
        assert decoder.bytes_rejected == len(probe)

    def test_accepted_bytes_still_counted(self):
        decoder = FrameStreamDecoder()
        frame = frame_payload(b'["q"]')
        assert decoder.feed(frame) == [b'["q"]']
        assert decoder.bytes_fed == len(frame)
        assert decoder.bytes_rejected == 0


# ----------------------------------------------------------------------
# Pinned regression: kill_worker recomputes suppression
# ----------------------------------------------------------------------
class TestKillWorkerSuppressionRegression:
    def test_no_stale_suppress_after_crash(self, tmp_path):
        """``kill_worker`` used to zero ``_outstanding`` without
        recomputing SUPPRESS: survivors of a worker crash stayed muted
        until unrelated traffic next touched the shard."""
        svc = IngestService(1, mode="inline", root=tmp_path,
                            suppress_after=1, resume_below=1,
                            supervise=False, clock=lambda: 100.0)
        conn = svc.open_conn("veh-1")
        assert svc.route(conn, batch("veh-1", 0))
        svc.flush()
        assert svc.suppressed(0) and conn.suppressed
        svc.kill_worker(0)
        # The crash emptied the shard's pipeline: suppression must lift
        # NOW, not at the next unrelated flush.
        assert not svc.suppressed(0)
        assert not conn.suppressed
        assert svc.batches_forgotten == 1
        svc.audit_conservation()

    def test_forgotten_work_counted_in_conservation(self, tmp_path):
        svc = IngestService(1, mode="inline", root=tmp_path,
                            supervise=False, clock=lambda: 100.0)
        conn = svc.open_conn("veh-1")
        for rnd in range(3):
            assert svc.route(conn, batch("veh-1", rnd))
        svc.flush()          # 3 batches now in flight
        assert svc.route(conn, batch("veh-1", 3))  # 1 buffered
        svc.kill_worker(0)
        assert svc.batches_forgotten == 4
        assert svc.inflight_batches() == 0 and svc.buffered() == 0
        svc.audit_conservation()

    def test_cooked_metrics_detected(self, tmp_path):
        svc = IngestService(1, mode="inline", root=tmp_path,
                            clock=lambda: 100.0)
        conn = svc.open_conn("veh-1")
        assert svc.route(conn, batch("veh-1", 0))
        svc.flush()
        svc.poll_completions()
        svc.audit_conservation()
        svc.batches_routed += 1  # cook the books
        with pytest.raises(ConservationError):
            svc.audit_conservation()


# ----------------------------------------------------------------------
# Pinned regression: monotonic deadlines and latency
# ----------------------------------------------------------------------
class TestMonotonicClocks:
    def test_no_wall_clock_reads_on_deadline_or_latency_paths(self):
        """Deadlines and ACK-latency math must never read the wall
        clock: an NTP step mid-drain used to cut the timeout short (or
        hang it) and poison latency stats."""
        for func in (IngestService.drain_and_close,
                     _ProcessBackend.close,
                     WorkerCore.ingest_handoff):
            src = inspect.getsource(func)
            assert "time.time()" not in src, func.__qualname__

    def test_drain_deadline_immune_to_wall_clock_step(self, tmp_path):
        # A wall clock jumped 10 years into the future: the monotonic
        # drain deadline must not fire early.
        svc = IngestService(1, mode="inline", root=tmp_path,
                            clock=lambda: time.time() + 315_360_000)
        conn = svc.open_conn("veh-1")
        assert svc.route(conn, encode_batch(0, [
            ev("veh-1", "s", time.time() + 315_360_000 - 1.0, 1)]))
        metrics = svc.drain_and_close(timeout_s=5.0)
        assert svc.batches_acked == 1
        assert metrics[0]["service_handoffs"] == 1.0

    def test_handoff_latency_uses_monotonic_stamp(self, tmp_path):
        core = WorkerCore(0, tmp_path)
        t_mono = time.monotonic() - 0.5
        report = core.ingest_handoff(
            1000.0, [(1, "veh-1", 0, batch("veh-1", 0, t0=999.0))],
            seq=1, t_mono=t_mono)
        assert report.acks[0][3] == 3
        m = core.metrics()
        # ~0.5s of queue latency observed, regardless of the wall time
        # (t_send=1000.0 is nowhere near the monotonic clock).
        assert 0.4 < m["service_handoff_latency_max_s"] < 60.0
        core.close()


# ----------------------------------------------------------------------
# Pinned regression: never write SUPPRESS to a closing transport
# ----------------------------------------------------------------------
class _ClosingWriter:
    """A transport that is mid-close: writes after that are a bug."""

    def __init__(self):
        self.writes = []
        self.closing = False

    def is_closing(self):
        return self.closing

    def write(self, data):
        assert not self.closing, "write to a closing transport"
        self.writes.append(data)

    def close(self):
        self.closing = True


class TestSuppressWriteGuard:
    def test_shard_transition_skips_closing_transport(self, tmp_path):
        svc = IngestService(1, mode="inline", root=tmp_path,
                            suppress_after=1, resume_below=1,
                            clock=lambda: 100.0)
        live, dying = _ClosingWriter(), _ClosingWriter()
        conn_live = svc.open_conn("veh-live", live)
        conn_dying = svc.open_conn("veh-dying", dying)
        dying.closing = True  # transport close raced the transition
        assert svc.route(conn_live, batch("veh-live", 0))
        svc.flush()  # outstanding=1 >= suppress_after: SUPPRESS
        assert svc.suppressed(0)
        # The dying conn's *state* still flipped; only the write skipped.
        assert conn_dying.suppressed and not dying.writes
        assert conn_live.suppressed and len(live.writes) == 1
        svc.poll_completions()  # RESUME
        assert not conn_dying.suppressed and not dying.writes
        assert len(live.writes) == 2
        svc.drain_and_close()

    def test_quota_suppress_skips_closing_transport(self):
        clk = [0.0]
        svc = IngestService(1, mode="inline", quota_bytes_per_s=10.0,
                            quota_burst_bytes=10.0, clock=lambda: clk[0],
                            mono_clock=lambda: clk[0])
        w = _ClosingWriter()
        conn = svc.open_conn("veh-1", w)
        w.closing = True
        payload = batch("veh-1", 0)
        assert not svc.route(conn, payload)  # over the 10-byte burst
        assert conn.quota_suppressed and not w.writes
        svc.audit_conservation()


# ----------------------------------------------------------------------
# Authenticated sessions
# ----------------------------------------------------------------------
class TestSessionCrypto:
    def test_session_keys_differ_per_client(self):
        k1 = derive_session_key(FLEET_KEY, "veh-1")
        k2 = derive_session_key(FLEET_KEY, "veh-2")
        assert k1 != k2 and len(k1) == len(k2) == 16
        assert derive_session_key(FLEET_KEY, "veh-1") == k1

    def test_batch_tag_binds_client_batch_and_payload(self):
        key = derive_session_key(FLEET_KEY, "veh-1")
        payload = batch("veh-1", 7)
        tag = batch_tag(key, "veh-1", 7, payload)
        assert tag != batch_tag(key, "veh-2", 7, payload)
        assert tag != batch_tag(key, "veh-1", 8, payload)
        assert tag != batch_tag(key, "veh-1", 7, payload + b" ")

    def test_seal_payload_keeps_frontend_scans_working(self):
        key = derive_session_key(FLEET_KEY, "veh-1")
        payload = batch("veh-1", 12)
        sealed = seal_payload(key, "veh-1", payload)
        assert sealed[:4] == b'["e"'          # fast-path prefix intact
        assert batch_id_of(sealed) == 12      # 2-comma scan intact
        assert sealed[:-16] == payload        # tag rides outside the JSON

    def test_worker_verifies_and_rejects_tampered_trailer(self, tmp_path):
        config = ServiceConfig(fleet_key=FLEET_KEY)
        core = WorkerCore(0, tmp_path, config)
        key = derive_session_key(FLEET_KEY, "veh-1")
        good = seal_payload(key, "veh-1", batch("veh-1", 0))
        flipped = bytearray(seal_payload(key, "veh-1", batch("veh-1", 1)))
        flipped[-1] ^= 0x01                       # tampered tag
        unsealed = batch("veh-1", 2)              # missing tag entirely
        wrong_client = seal_payload(key, "veh-1", batch("veh-1", 3))
        report = core.ingest_handoff(1000.0, [
            (1, "veh-1", 0, good),
            (1, "veh-1", 1, bytes(flipped)),
            (1, "veh-1", 2, unsealed),
            (2, "veh-2", 3, wrong_client),        # veh-1's tag, veh-2's key
        ])
        assert report.acks == ((1, 0, 3, 3), (1, 1, 0, -2),
                               (1, 2, 0, -2), (2, 3, 0, -2))
        assert core.cmac_rejected == 3
        assert core.metrics()["service_cmac_rejected"] == 3.0
        core.close()

    def test_plain_mode_accepts_unsealed_batches(self, tmp_path):
        core = WorkerCore(0, tmp_path)  # no fleet key: plain mode
        report = core.ingest_handoff(
            1000.0, [(1, "veh-1", 0, batch("veh-1", 0))])
        assert report.acks == ((1, 0, 3, 3),)
        assert core.cmac_rejected == 0
        core.close()


class TestAuthHandshake:
    def _serve(self, tmp_path, **svc_kwargs):
        config = ServiceConfig(fleet_key=FLEET_KEY)
        svc = IngestService(1, mode="inline", root=tmp_path, config=config,
                            **svc_kwargs)
        return svc

    def test_authenticated_round_trip(self, tmp_path):
        async def main():
            svc = self._serve(tmp_path)
            server = await serve(svc)
            client = VehicleClient(
                "veh-1", port=server.port,
                session_key=derive_session_key(FLEET_KEY, "veh-1"))
            await client.connect()
            assert client.shard == 0
            t0 = time.time() - 60.0
            for rnd in range(3):
                await client.send_events(
                    [ev("veh-1", "sig.a", t0 + rnd, rnd)])
            await client.drain()
            assert client.events_accepted == 3
            await client.close()
            await server.stop()
            return svc

        svc = asyncio.run(main())
        assert svc.auth_failures == 0
        assert svc.batches_acked == 3

    def test_wrong_key_refused_and_counted(self, tmp_path):
        async def main():
            svc = self._serve(tmp_path)
            server = await serve(svc)
            impostor = VehicleClient("veh-1", port=server.port,
                                     session_key=b"\x13" * 16)
            with pytest.raises(ConnectionError):
                await impostor.connect()
            await server.stop()
            return svc

        svc = asyncio.run(main())
        assert svc.auth_failures == 1
        assert svc.metrics()["auth_failures"] == 1.0
        assert len(svc.conns) == 0

    def test_keyless_client_cannot_join_authenticated_fleet(self, tmp_path):
        async def main():
            svc = self._serve(tmp_path)
            server = await serve(svc)
            plain = VehicleClient("veh-1", port=server.port)
            with pytest.raises((CorruptRecord, ConnectionError)):
                await plain.connect()
            await server.stop()

        asyncio.run(main())

    def test_batch_before_hello_is_a_protocol_fault(self, tmp_path):
        async def main():
            svc = self._serve(tmp_path)
            server = await serve(svc)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(frame_payload(batch("veh-1", 0)))
            await writer.drain()
            got = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            await server.stop()
            return got, svc

        got, svc = asyncio.run(main())
        assert got == b""  # dropped without a WELCOME
        assert svc.protocol_errors == 1

    def test_garbage_auth_tag_refused(self, tmp_path):
        async def main():
            svc = self._serve(tmp_path)
            server = await serve(svc)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(frame_payload(encode_hello("veh-1")))
            await writer.drain()
            # Swallow the CHALLENGE, answer with an unparseable tag.
            decoder = FrameStreamDecoder()
            while not decoder.feed(await reader.read(1 << 16)):
                pass
            writer.write(frame_payload(
                canonical_dumps(["u", "not-hex!"])))
            await writer.drain()
            got = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            await server.stop()
            return got, svc

        got, svc = asyncio.run(main())
        assert got == b""
        assert svc.auth_failures == 1

    def test_handshake_read_deadline(self, tmp_path):
        async def main():
            svc = self._serve(tmp_path, handshake_timeout_s=0.1)
            server = await serve(svc)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            # Say nothing: the server must reap us, not park forever.
            got = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            await server.stop()
            return got, svc

        got, svc = asyncio.run(main())
        assert got == b""
        assert svc.handshake_timeouts == 1
        assert svc.half_open == 0  # slot released

    def test_preauth_byte_cap(self, tmp_path):
        async def main():
            svc = self._serve(tmp_path, max_preauth_bytes=256)
            server = await serve(svc)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            # A torn frame whose declared length is plausible: the
            # decoder buffers it all pre-auth -- the cap must trip.
            writer.write((4096).to_bytes(4, "little") + b"\0\0\0\0")
            writer.write(b"\0" * 1024)
            await writer.drain()
            got = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            await server.stop()
            return got, svc

        got, svc = asyncio.run(main())
        assert got == b""
        assert svc.preauth_overflows == 1

    def test_half_open_cap_refuses_at_accept(self, tmp_path):
        async def main():
            svc = self._serve(tmp_path, max_half_open=1,
                              handshake_timeout_s=5.0)
            server = await serve(svc)
            # First connection parks in the handshake (never speaks).
            _, w1 = await asyncio.open_connection("127.0.0.1", server.port)
            await asyncio.sleep(0.05)
            r2, w2 = await asyncio.open_connection("127.0.0.1", server.port)
            got = await asyncio.wait_for(r2.read(), timeout=10.0)
            w1.close()
            w2.close()
            await server.stop()
            return got, svc

        got, svc = asyncio.run(main())
        assert got == b""
        assert svc.half_open_rejected == 1


# ----------------------------------------------------------------------
# Per-client quotas
# ----------------------------------------------------------------------
class TestQuotas:
    def test_over_quota_refused_counted_and_suppressed(self, tmp_path):
        clk = [0.0]
        svc = IngestService(1, mode="inline", root=tmp_path,
                            quota_bytes_per_s=100.0, quota_burst_bytes=200.0,
                            clock=lambda: 1000.0, mono_clock=lambda: clk[0])
        conn = svc.open_conn("veh-1")
        admitted_bytes = refused_bytes = admitted = refused = 0
        for rnd in range(12):
            payload = batch("veh-1", rnd, t0=900.0)
            if svc.route(conn, payload):
                admitted += 1
                admitted_bytes += len(payload)
            else:
                refused += 1
                refused_bytes += len(payload)
        assert admitted >= 1 and refused >= 1
        assert admitted_bytes <= 200.0  # the burst bounds admission
        assert svc.quota_refused == refused == conn.quota_refused
        assert svc.quota_refused_bytes == refused_bytes
        assert conn.quota_suppressed and conn.suppressed
        svc.flush()
        svc.poll_completions()
        svc.audit_conservation()  # refused batches never enter the flow
        # Refill past half the burst: the next flush lifts suppression.
        clk[0] += 2.0
        svc.flush()
        assert not conn.quota_suppressed and not conn.suppressed
        svc.drain_and_close()

    def test_quota_is_per_connection(self, tmp_path):
        clk = [0.0]
        svc = IngestService(1, mode="inline", root=tmp_path,
                            quota_bytes_per_s=100.0, quota_burst_bytes=250.0,
                            clock=lambda: 1000.0, mono_clock=lambda: clk[0])
        hog = svc.open_conn("veh-hog")
        polite = svc.open_conn("veh-polite")
        while svc.route(hog, batch("veh-hog", hog.batches, t0=900.0)):
            pass
        # The hog exhausted *its* bucket; the polite client is untouched.
        assert hog.quota_suppressed
        assert svc.route(polite, batch("veh-polite", 0, t0=900.0))
        assert not polite.quota_suppressed and not polite.suppressed
        svc.drain_and_close()

    def test_refused_frame_returns_credit_to_client(self, tmp_path):
        async def main():
            svc = IngestService(1, mode="inline", root=tmp_path,
                                quota_bytes_per_s=1.0, quota_burst_bytes=1.0,
                                initial_credits=4)
            server = await serve(svc)
            client = VehicleClient("veh-1", port=server.port)
            await client.connect()
            t0 = time.time() - 60.0
            # Every batch exceeds the 1-byte burst: all hard-refused.
            for rnd in range(3):
                await client.send_events(
                    [ev("veh-1", "sig.a", t0 + rnd, rnd)])
            while client.batches_refused < 3:
                await asyncio.sleep(0.005)
            await client.close()
            await server.stop()
            return svc, client

        svc, client = asyncio.run(main())
        assert client.batches_refused == 3
        assert client.events_refused_quota == 3
        assert client.events_accepted == 0
        assert client.credits >= 4  # every refusal returned its credit
        assert svc.quota_refused == 3
        assert svc.batches_routed == 0
        svc.audit_conservation()

    def test_hostile_flood_disconnected_after_threshold(self, tmp_path):
        async def main():
            svc = IngestService(1, mode="inline", root=tmp_path,
                                quota_bytes_per_s=1.0, quota_burst_bytes=1.0,
                                quota_disconnect_after=5,
                                initial_credits=100)
            server = await serve(svc)
            client = VehicleClient("veh-flood", port=server.port)
            await client.connect()
            t0 = time.time() - 60.0
            with pytest.raises(ConnectionError):
                for rnd in range(200):
                    await client.send_events(
                        [ev("veh-flood", "sig.a", t0 + rnd, rnd)])
                    await asyncio.sleep(0)
                await client.drain()
                raise ConnectionError("flood was never cut off")
            await client.close()
            await server.stop()
            return svc

        svc = asyncio.run(main())
        assert svc.quota_disconnects == 1
        assert svc.quota_refused >= 5
        assert len(svc.conns) == 0


# ----------------------------------------------------------------------
# Handoff journal + log truncation (the exactly-once machinery)
# ----------------------------------------------------------------------
class TestHandoffJournal:
    def test_record_lookup_and_reload(self, tmp_path):
        path = tmp_path / "handoff-journal.log"
        j = _HandoffJournal(path)
        j.record(1, [(1, 0, 3, 3), (2, 1, 3, 0)])
        j.record(2, [(1, 2, 3, 3)])
        assert j.lookup(1) == ((1, 0, 3, 3), (2, 1, 3, 0))
        assert j.lookup(99) == ()
        j.close()
        j2 = _HandoffJournal(path)
        assert j2.lookup(1) == ((1, 0, 3, 3), (2, 1, 3, 0))
        assert j2.lookup(2) == ((1, 2, 3, 3),)
        j2.close()

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "handoff-journal.log"
        j = _HandoffJournal(path)
        j.record(1, [(1, 0, 3, 3)])
        j.record(2, [(1, 1, 3, 3)])
        j.close()
        # Tear the last record mid-frame (a crash mid-write).
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        j2 = _HandoffJournal(path)
        assert j2.lookup(1) == ((1, 0, 3, 3),)
        assert j2.lookup(2) == ()  # torn entry dropped whole
        j2.close()

    def test_bounded_rewrite_keeps_recent_entries(self, tmp_path):
        path = tmp_path / "handoff-journal.log"
        j = _HandoffJournal(path, keep=4)
        for seq in range(1, 20):
            j.record(seq, [(1, seq, 1, 1)])
        assert len(j.entries) <= 2 * 4 + 1
        assert j.lookup(19) == ((1, 19, 1, 1),)
        assert j.lookup(1) == ()  # aged out
        j.close()
        j2 = _HandoffJournal(path, keep=4)
        assert j2.lookup(19) == ((1, 19, 1, 1),)
        j2.close()


class TestTruncateAfterLastMark:
    def _log(self, tmp_path, **kw):
        return EventLog(tmp_path / "log", **kw)

    @staticmethod
    def _kinds(log):
        return [r.kind for r in log.replay()]

    def test_truncates_unmarked_suffix(self, tmp_path):
        log = self._log(tmp_path)
        log.append_batch(1.0, 0, [ev("v", "s", 0.5, 1)])
        log.append_mark(1.0, 1)
        log.append_batch(2.0, 0, [ev("v", "s", 1.5, 2)])  # no marker: doomed
        log.append_batch(2.0, 0, [ev("v", "s", 1.6, 3)])
        stats = log.truncate_after_last_mark()
        assert stats["records_dropped"] == 2
        assert stats["bytes_dropped"] > 0
        assert self._kinds(log) == ["batch", "mark"]
        # The log stays appendable at the boundary.
        assert log.append_batch(3.0, 0, [ev("v", "s", 2.5, 4)]) == 3
        assert self._kinds(log) == ["batch", "mark", "batch"]
        log.close()

    def test_noop_when_log_ends_at_marker(self, tmp_path):
        log = self._log(tmp_path)
        log.append_batch(1.0, 0, [ev("v", "s", 0.5, 1)])
        log.append_mark(1.0, 1)
        stats = log.truncate_after_last_mark()
        assert stats == {"records_dropped": 0, "bytes_dropped": 0,
                         "segments_deleted": 0}
        assert self._kinds(log) == ["batch", "mark"]
        log.close()

    def test_deletes_whole_markerless_segments(self, tmp_path):
        log = self._log(tmp_path, segment_max_records=2)
        log.append_batch(1.0, 0, [ev("v", "s", 0.5, 1)])
        log.append_mark(1.0, 1)                            # seg 1: marked
        log.append_batch(2.0, 0, [ev("v", "s", 1.5, 2)])   # seg 2: no marker
        log.append_batch(2.0, 0, [ev("v", "s", 1.6, 3)])
        log.append_batch(2.0, 0, [ev("v", "s", 1.7, 4)])   # seg 3: no marker
        stats = log.truncate_after_last_mark()
        assert stats["segments_deleted"] >= 1
        assert stats["records_dropped"] == 3
        assert self._kinds(log) == ["batch", "mark"]
        log.close()

    def test_empty_and_markerless_logs_reset_clean(self, tmp_path):
        log = self._log(tmp_path)
        assert log.truncate_after_last_mark()["records_dropped"] == 0
        log.append_batch(1.0, 0, [ev("v", "s", 0.5, 1)])
        stats = log.truncate_after_last_mark()
        assert stats["records_dropped"] == 1
        assert self._kinds(log) == []
        assert log.append_batch(2.0, 0, [ev("v", "s", 1.5, 2)]) == 1
        assert self._kinds(log) == ["batch"]
        log.close()


# ----------------------------------------------------------------------
# Pinned regression: non-finite event times
# ----------------------------------------------------------------------
class TestNonFiniteEventTimeRegression:
    def test_nan_timed_event_refused_and_worker_recovers(self, tmp_path):
        """The wire decoder accepts ``NaN`` (plain ``json.loads``), and
        ``NaN`` fails both halves of a ``t < 0 or t > now`` check, so a
        NaN-timed event used to be admitted -- and the archival tap's
        ``allow_nan=False`` encoder then raised inside ``service_pump``
        on every (re)submission of the handoff.  A non-finite time is a
        schema violation, so the validating decoder refuses its batch
        whole (admission's range check still refuses NaN from in-process
        callers); the handoff's other batch flows and is journaled."""
        events = [ev("veh-a", f"sig.{i % 2}", 900.0 + i, i) for i in range(5)]
        obj = json.loads(encode_batch(7, events))
        obj[2][2][1] = float("nan")       # an event array: index 1 is time
        payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
        assert b"NaN" in payload
        items = [(1, "veh-a", 7, payload), (1, "veh-a", 8, batch("veh-a", 8))]

        core = WorkerCore(0, root=tmp_path, config=ServiceConfig())
        report = core.ingest_handoff(1000.0, items, seq=1)
        assert report.acks == ((1, 7, 0, -1), (1, 8, 3, 3))
        assert core.metrics()["service_decode_errors"] == 1.0
        assert report.dispatched == 3
        core.close()

        restarted = WorkerCore(0, root=tmp_path, config=ServiceConfig(),
                               recover=True)
        assert restarted.soc._pump_no == 1
        again = restarted.ingest_handoff(1000.0, items, seq=1)
        assert again.acks == report.acks   # from the journal
        assert restarted.replayed_handoffs == 1
        restarted.close()


# ----------------------------------------------------------------------
# Pinned regression: schema-violating events
# ----------------------------------------------------------------------
#: (event-array index, hostile JSON value) -- one field per case.
SCHEMA_VIOLATIONS = [
    pytest.param(0, ["e1"], id="list-event-id"),
    pytest.param(1, "901.0", id="string-time"),
    pytest.param(1, True, id="bool-time"),
    pytest.param(2, ["v"], id="list-vehicle-id"),
    pytest.param(3, "can", id="unknown-source"),
    pytest.param(4, {"k": 1}, id="dict-signature"),
    pytest.param(5, 9, id="severity-out-of-range"),
    pytest.param(5, True, id="bool-severity"),
    pytest.param(5, 2.0, id="float-severity"),
    pytest.param(6, {"k": 1}, id="dict-detail"),
    pytest.param(6, [[1, "x"]], id="non-string-detail-key"),
    pytest.param(6, [["k", [1]]], id="non-scalar-detail-value"),
    pytest.param(6, [["k", float("nan")]], id="nan-detail-value"),
]


class TestSchemaViolatingEventRegression:
    @pytest.mark.parametrize("field, value", SCHEMA_VIOLATIONS)
    def test_bad_event_refuses_its_batch_and_worker_recovers(
            self, tmp_path, field, value):
        """The wire decoder checked no field types, so one event such as
        ``["e1", 1.0, ["v"], "ids", "ids.x", 4, []]`` was admitted and
        archived, then raised ``TypeError`` in ``observe_batch`` -- on
        every resubmission of the handoff too, after recovery.  Others
        were silently coerced (``"901.0"`` -> 901.0, ``true`` -> ASIL A)
        or crashed the archival encoder (NaN detail).  The validating
        decoder refuses the batch whole; the handoff's other batches are
        acked, and the worker recovers and keeps ingesting."""
        bad = json.loads(batch("veh-a", 1))
        bad[2][1][field] = value
        items = [(1, "veh-a", 0, batch("veh-a", 0)),
                 (1, "veh-a", 1,
                  json.dumps(bad, separators=(",", ":")).encode("utf-8")),
                 (2, "veh-b", 2, batch("veh-b", 2))]

        core = WorkerCore(0, root=tmp_path, config=ServiceConfig())
        report = core.ingest_handoff(1000.0, items, seq=1)
        assert report.acks == ((1, 0, 3, 3), (1, 1, 0, -1), (2, 2, 3, 3))
        assert core.metrics()["service_decode_errors"] == 1.0
        assert report.dispatched == 6
        core.close()

        restarted = WorkerCore(0, root=tmp_path, config=ServiceConfig(),
                               recover=True)
        again = restarted.ingest_handoff(1000.0, items, seq=1)
        assert again.acks == report.acks   # from the journal
        more = restarted.ingest_handoff(
            1001.0, [(1, "veh-a", 3, batch("veh-a", 3))], seq=2)
        assert more.acks == ((1, 3, 3, 3),)
        restarted.close()


# ----------------------------------------------------------------------
# Supervised auto-restart: exactly-once, byte-identical
# ----------------------------------------------------------------------
def _drive_with_kills(root, mode, kill_rounds, rounds=16, num_workers=2,
                      authenticated=True):
    """Drive an IngestService deterministically (injected wall clock,
    manual flush per round so handoff grouping matches across runs),
    SIGKILL-ing every worker at each round in ``kill_rounds``.  Returns
    (acked_batches, metrics, mttr_samples)."""
    config = ServiceConfig(
        max_lateness_s=7200.0, snapshot_every_pumps=3,
        fleet_key=FLEET_KEY if authenticated else None)
    clk = [1000.0]
    svc = IngestService(num_workers, mode=mode, root=root, config=config,
                        clock=lambda: clk[0])
    conns = [svc.open_conn(f"veh-{i}") for i in range(3)]
    keys = {c.client_id: derive_session_key(FLEET_KEY, c.client_id)
            for c in conns}
    acked = 0
    mttrs = []
    for rnd in range(rounds):
        clk[0] += 1.0
        for conn in conns:
            payload = batch(conn.client_id, rnd)
            if authenticated:
                payload = seal_payload(keys[conn.client_id],
                                       conn.client_id, payload)
            assert svc.route(conn, payload)
        svc.flush()
        if rnd in kill_rounds:
            t0 = time.monotonic()
            for shard in range(num_workers):
                svc.sigkill_worker(shard)
            assert svc.check_workers() == num_workers
            # MTTR: kill -> every resubmitted handoff reported back.
            while svc.inflight_batches():
                acked += len(svc.poll_completions(timeout=0.05))
            mttrs.append(time.monotonic() - t0)
        acked += len(svc.poll_completions(
            timeout=0.01 if mode == "process" else 0.0))
    deadline = time.monotonic() + 60.0
    while (svc.buffered() or any(x > 0 for x in svc._outstanding)) \
            and time.monotonic() < deadline:
        svc.flush()
        acked += len(svc.poll_completions(timeout=0.01))
    svc.audit_conservation()
    metrics = svc.metrics()
    svc.drain_and_close()
    return acked, metrics, mttrs


def _assert_worker_stores_identical(root_a, root_b, num_workers):
    for shard in range(num_workers):
        dir_a, dir_b = worker_root(root_a, shard), worker_root(root_b, shard)
        segs_a = sorted(dir_a.rglob("seg-*.log"))
        segs_b = sorted(dir_b.rglob("seg-*.log"))
        assert [p.relative_to(dir_a) for p in segs_a] == [
            p.relative_to(dir_b) for p in segs_b] != []
        for a, b in zip(segs_a, segs_b):
            assert a.read_bytes() == b.read_bytes(), a.name
        snap_a = recover_worker(root_a, shard).analytics_snapshot()
        snap_b = recover_worker(root_b, shard).analytics_snapshot()
        assert snap_a == snap_b


class TestAutoRestart:
    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_sigkill_restart_byte_identical_to_twin(self, tmp_path, mode):
        """Kill every worker mid-load (twice): the restarted run must be
        byte-identical -- raw log segments AND analytics snapshots -- to
        an uninterrupted twin, with zero admitted-batch ACKs lost."""
        acked, metrics, _ = _drive_with_kills(
            tmp_path / "killed", mode, kill_rounds={4, 10})
        twin_acked, twin_metrics, _ = _drive_with_kills(
            tmp_path / "twin", mode, kill_rounds=set())
        assert acked == twin_acked == 16 * 3
        assert metrics["worker_restarts"] == 4.0
        assert metrics["events_acked"] == twin_metrics["events_acked"]
        assert metrics["batches_acked"] == twin_metrics["batches_acked"]
        _assert_worker_stores_identical(tmp_path / "killed",
                                        tmp_path / "twin", 2)

    def test_replay_is_exactly_once(self, tmp_path):
        """A handoff whose report died with the worker is resubmitted
        and replayed from the journal -- never re-admitted (the inline
        backend processes synchronously, so every kill happens *after*
        the handoff was fully processed but before the frontend consumed
        its report: the pure duplicate-report window)."""
        acked, metrics, _ = _drive_with_kills(
            tmp_path / "r", "inline", kill_rounds={3, 7, 11})
        assert acked == 16 * 3
        assert metrics["duplicate_reports"] >= 1.0
        assert metrics["handoffs_resubmitted"] >= 1.0
        assert metrics["events_acked"] == 16 * 3 * 3  # no double-admission

    def test_mttr_is_bounded(self, tmp_path):
        _, _, mttrs = _drive_with_kills(
            tmp_path / "m", "process", kill_rounds={6})
        assert len(mttrs) == 1
        assert mttrs[0] < 30.0  # generous CI bound; E20 publishes real MTTR

    def test_repeated_sigkills_never_stall_reports(self, tmp_path):
        """A SIGKILL can land while a worker's feeder thread holds its
        completion queue's write lock.  On a queue shared by all workers
        that lock is never released and every later report stalls; with a
        queue per worker, replaced at restart, each kill round drains."""
        config = ServiceConfig(max_lateness_s=7200.0, snapshot_every_pumps=3,
                               fleet_key=FLEET_KEY)
        clk = [1000.0]
        svc = IngestService(2, mode="process", root=tmp_path, config=config,
                            clock=lambda: clk[0])
        conns = [svc.open_conn(f"veh-{i}") for i in range(4)]
        keys = {c.client_id: derive_session_key(FLEET_KEY, c.client_id)
                for c in conns}
        try:
            for rnd in range(24):
                clk[0] += 1.0
                for conn in conns:
                    assert svc.route(conn, seal_payload(
                        keys[conn.client_id], conn.client_id,
                        batch(conn.client_id, rnd)))
                svc.flush()
                # Vary how far the workers get before the kill, so kills
                # land across their report writes.
                svc.poll_completions(timeout=0.002 * (rnd % 4))
                for shard in range(2):
                    svc.sigkill_worker(shard)
                assert svc.check_workers() == 2
                deadline = time.monotonic() + 10.0
                while svc.inflight_batches():
                    assert time.monotonic() < deadline, (
                        f"reports stalled after kill round {rnd}")
                    svc.poll_completions(timeout=0.05)
            svc.audit_conservation()
        finally:
            svc.drain_and_close()

    def test_unsupervised_service_does_not_restart(self, tmp_path):
        svc = IngestService(1, mode="inline", root=tmp_path,
                            supervise=False, clock=lambda: 100.0)
        conn = svc.open_conn("veh-1")
        assert svc.route(conn, batch("veh-1", 0))
        svc.flush()
        svc.sigkill_worker(0)
        assert svc.check_workers() == 0
        assert svc.worker_restarts == 0

    def test_restart_requires_durable_root(self):
        svc = IngestService(1, mode="inline", supervise=True,
                            clock=lambda: 100.0)
        svc.sigkill_worker(0)
        with pytest.raises(RuntimeError):
            svc.check_workers()

    def test_worker_core_recover_requires_root(self):
        with pytest.raises(ValueError):
            WorkerCore(0, None, recover=True)

    def test_recovered_worker_replays_journal_acks(self, tmp_path):
        config = ServiceConfig(max_lateness_s=7200.0)
        core = WorkerCore(0, tmp_path, config)
        r1 = core.ingest_handoff(1000.0, [(1, "veh-1", 0, batch("veh-1", 0))],
                                 seq=1)
        assert r1.acks == ((1, 0, 3, 3),)
        # Simulate the crash: no close(), rebuild from disk in recover
        # mode, then resubmit the same handoff.
        core2 = WorkerCore(0, tmp_path, config, recover=True)
        r2 = core2.ingest_handoff(1000.0,
                                  [(1, "veh-1", 0, batch("veh-1", 0))],
                                  seq=1)
        assert r2.acks == r1.acks     # the owed ack report, replayed
        assert r2.dispatched == 0     # nothing re-admitted
        assert core2.replayed_handoffs == 1
        assert core2.metrics()["service_replayed_handoffs"] == 1.0
        # A genuinely new handoff still processes normally.
        r3 = core2.ingest_handoff(1001.0,
                                  [(1, "veh-1", 1, batch("veh-1", 1))],
                                  seq=2)
        assert r3.acks == ((1, 1, 3, 3),)
        core2.close()

    def test_process_server_survives_sigkill_under_live_load(self, tmp_path):
        """End-to-end over real sockets: SIGKILL both workers while
        clients are streaming; every admitted batch is still ACKed."""
        async def main():
            config = ServiceConfig(max_lateness_s=7200.0,
                                   fleet_key=FLEET_KEY)
            svc = IngestService(2, mode="process", root=tmp_path,
                                config=config)
            server = await serve(svc, flush_interval_s=0.005)
            clients = []
            for i in range(3):
                cid = f"veh-{i}"
                c = VehicleClient(
                    cid, port=server.port,
                    session_key=derive_session_key(FLEET_KEY, cid))
                await c.connect()
                clients.append(c)
            t0 = time.time() - 120.0
            for rnd in range(20):
                for c in clients:
                    await c.send_events(
                        [ev(c.client_id, f"sig.{rnd % 3}",
                            t0 + rnd + 0.01 * j, rnd * 10 + j)
                         for j in range(3)])
                if rnd == 8:
                    svc.sigkill_worker(0)
                    svc.sigkill_worker(1)
                await asyncio.sleep(0.002)
            for c in clients:
                await c.drain()
            sent = sum(c.events_sent for c in clients)
            accepted = sum(c.events_accepted for c in clients)
            for c in clients:
                await c.close()
            await server.stop()
            return svc, sent, accepted

        svc, sent, accepted = asyncio.run(main())
        assert accepted == sent == 3 * 20 * 3  # zero ACKs lost
        assert svc.worker_restarts == 2
        svc.audit_conservation()
