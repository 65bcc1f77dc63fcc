"""Multiprocess network ingest service: asyncio frontend + shard workers.

Until now every event entered the VSOC through in-process Python calls;
this module is the front door ROADMAP names ("Live ingest service
frontend"): an :mod:`asyncio` TCP server that thousands of vehicle
connections report into, feeding a pool of **shard worker processes**
so the GIL stops being the scaling wall.

Topology::

    vehicles (VehicleClient) --TCP frames--> IngestServer (asyncio, 1 proc)
        |  HELLO/BATCH -->                        |
        |  <-- WELCOME/ACK/SUPPRESS/RESUME        | route by client id
        |                                         v
        |                    per-shard handoff buffers (raw frame bytes)
        |                                         |  one queue put per
        |                                         v  drained buffer
        |                          shard worker process 0..N-1, each:
        |                            IngestPipeline -> CorrelationEngine
        |                            -> IncidentTracker -> EventLog+snapshots
        |                                         |
        +------------- completion reports --------+

Design rules, each load-bearing for the >=3x multiprocess scaling:

- **The frontend never decodes an event.**  Clients serialize batches
  once (the same canonical-JSON event objects the durable log stores,
  inside the same ``u32len|CRC32`` envelope -- wire bytes, log bytes and
  shipment bytes share one codec); the frontend splits frames, reads the
  batch id with a 2-comma scan, and forwards the *raw payload bytes* to
  the owning shard's buffer.  All JSON and correlation cost lands in the
  worker processes.
- **Serialize once per drained batch.**  A handoff posts one message --
  ``(t_send, [(conn, batch_id, payload), ...])`` -- per buffer drain,
  not one per event, so queue pickling amortizes exactly like the
  pipeline's batch sinks do.
- **Sharding is by client id** (CRC-32, like
  :func:`~repro.soc.shard.region_shard_key`): one vehicle, one worker,
  so per-vehicle dedup and per-signature windows stay worker-local for
  region-resident campaigns, and a connection has exactly one
  backpressure authority.
- **Backpressure is explicit.**  The existing source-suppression signal
  (:attr:`~repro.soc.ingest.IngestPipeline.congested`) is sampled by the
  worker after admission and propagated -- together with the frontend's
  own outstanding-handoff watermark -- back to every connection on that
  shard as SUPPRESS/RESUME frames; :class:`VehicleClient` then sheds
  ASIL-A telemetry at the source (counted, never silent), exactly like
  the in-simulation :class:`~repro.soc.fleet.FleetWorkloadGenerator`.
- **Credit-based flow control.**  WELCOME grants each connection
  ``credits`` in-flight batches; every ACK (sent only after the owning
  worker has *dispatched* the batch) returns one.  A client can never
  overrun the service faster than workers drain, and the ACK round-trip
  is the honest per-batch ingest-latency measurement E19 reports p99 of.

Every worker owns a full single-shard analytic stack -- ingest pipeline,
:class:`~repro.soc.correlate.CorrelationEngine`, incident tracker, and a
:class:`~repro.soc.store.DurableStore` -- driven through
:meth:`~repro.soc.center.SecurityOperationsCenter.service_pump`, so the
PR 4 recovery contract holds **per worker**: SIGKILL a worker process,
then :func:`recover_worker` (snapshot + log-suffix replay) rebuilds its
correlator state byte-identically (``tests/test_soc_service.py``).

``mode="inline"`` is the deterministic single-process fallback: the same
wire path, buffers and worker cores, with handoffs executed synchronously
in the caller's process.  It is differential-tested byte-identical (final
analytics snapshot *and* log bytes) to driving the existing in-process
pipeline directly, so the network layer is a transport, never a
semantics change.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing as mp
import multiprocessing.connection
import os
import queue as queue_mod
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.safety import Asil
from repro.crypto.cmac import aes_cmac, cmac_verify
from repro.crypto.kdf import hkdf
from repro.sim import Simulator
from repro.soc.center import (
    RecoveredAnalytics,
    SecurityOperationsCenter,
    recover_soc_state,
)
from repro.soc.events import SecurityEvent, event_from_obj
from repro.soc.fleet import FleetModel
from repro.soc.ingest import TokenBucket
from repro.soc.shard import ConservationAudit, stable_hash
from repro.soc.store import (
    FRAME_HEADER,
    SEGMENT_MAGIC,
    CorruptRecord,
    DurableStore,
    canonical_dumps,
    frame_payload,
    scan_valid_prefix,
    unframe_payload,
)

__all__ = [
    "BATCH_TAG_LEN",
    "PROTOCOL_VERSION",
    "FrameStreamDecoder",
    "IngestServer",
    "IngestService",
    "ServiceConfig",
    "VehicleClient",
    "WorkerCore",
    "WorkerReport",
    "auth_tag",
    "batch_id_of",
    "batch_tag",
    "decode_message",
    "derive_session_key",
    "encode_ack",
    "encode_auth",
    "encode_batch",
    "encode_bye",
    "encode_challenge",
    "encode_hello",
    "encode_refused",
    "encode_resume",
    "encode_suppress",
    "encode_welcome",
    "recover_worker",
    "seal_payload",
    "serve",
    "shard_for_client",
    "worker_root",
]

PROTOCOL_VERSION = 1

#: Wire message tags (first element of every canonical-JSON payload,
#: mirroring the log's ``"b"``/``"m"`` record tags).
_T_HELLO = "h"
_T_WELCOME = "w"
_T_BATCH = "e"
_T_ACK = "a"
_T_SUPPRESS = "s"
_T_RESUME = "r"
_T_BYE = "q"
_T_CHALLENGE = "c"
_T_AUTH = "u"
_T_REFUSED = "n"


# ----------------------------------------------------------------------
# Wire codec: canonical JSON payloads in the log's u32len|CRC32 envelope
# ----------------------------------------------------------------------

def encode_hello(client_id: str) -> bytes:
    """Connection opener (client -> server): declares the client id the
    frontend shards on."""
    return canonical_dumps([_T_HELLO, client_id, PROTOCOL_VERSION])


def encode_welcome(shard: int, num_workers: int, credits: int) -> bytes:
    """HELLO response (server -> client): the connection's shard, the
    worker fan-out, and the initial flow-control credit grant."""
    return canonical_dumps([_T_WELCOME, shard, num_workers, credits])


def encode_batch(batch_id: int, events: Sequence[SecurityEvent]) -> bytes:
    """One client event batch.  Each event rides as the same canonical
    JSON array the durable log stores (a
    :class:`~repro.soc.events.SecurityEvent` is that array as a tuple),
    so a worker's archival tap re-serializes it byte-identically."""
    return canonical_dumps([_T_BATCH, batch_id, list(events)])


def encode_ack(batch_id: int, accepted: int, credits: int) -> bytes:
    """Batch acknowledgement (server -> client), sent after the owning
    worker *dispatched* the batch: how many events were admitted, and
    how many flow-control credits this ACK returns."""
    return canonical_dumps([_T_ACK, batch_id, accepted, credits])


def encode_suppress() -> bytes:
    """Backpressure on (server -> client): shed ASIL-A telemetry at the
    source until RESUME."""
    return canonical_dumps([_T_SUPPRESS])


def encode_resume() -> bytes:
    """Backpressure off (server -> client)."""
    return canonical_dumps([_T_RESUME])


def encode_bye() -> bytes:
    """Orderly close (either direction)."""
    return canonical_dumps([_T_BYE])


def encode_challenge(nonce: bytes) -> bytes:
    """Authentication challenge (server -> client): a fresh server
    nonce the client must CMAC with its session key to prove identity
    before the frontend will open the connection."""
    return canonical_dumps([_T_CHALLENGE, nonce.hex()])


def encode_auth(tag: bytes) -> bytes:
    """Challenge response (client -> server): the AES-CMAC tag over
    the auth context, client id, and server nonce."""
    return canonical_dumps([_T_AUTH, tag.hex()])


def encode_refused(batch_id: int, credits: int) -> bytes:
    """Quota refusal (server -> client): the batch was hard-refused at
    the front door (over the per-client rate quota) -- its events were
    *not* admitted -- and ``credits`` flow-control credits return so the
    client's ledger stays live."""
    return canonical_dumps([_T_REFUSED, batch_id, credits])


#: AES-CMAC domain-separation context for the session handshake.
AUTH_CONTEXT = b"vsoc-auth-v1"
#: Raw CMAC trailer bytes appended to every authenticated BATCH payload.
BATCH_TAG_LEN = 16
_SESSION_SALT = b"vsoc-ingest-session-v1"


def derive_session_key(fleet_key: bytes, client_id: str) -> bytes:
    """Per-vehicle session key from the fleet key material: HKDF-SHA256
    keyed by the fleet key, bound to the client id -- the same
    derive-don't-distribute discipline as the SHE key hierarchy
    (:func:`~repro.crypto.kdf.she_kdf`), so the backend never stores a
    per-vehicle secret it cannot re-derive."""
    return hkdf(fleet_key, 16, salt=_SESSION_SALT,
                info=client_id.encode("utf-8"))


def auth_tag(session_key: bytes, client_id: str, nonce: bytes) -> bytes:
    """Handshake proof: CMAC over ``context|client_id|nonce``."""
    return aes_cmac(session_key,
                    AUTH_CONTEXT + b"|" + client_id.encode("utf-8")
                    + b"|" + nonce)


def batch_tag(session_key: bytes, client_id: str, batch_id: int,
              payload: bytes) -> bytes:
    """Per-batch authentication tag: CMAC over
    ``client_id|batch_id|payload`` -- binds the batch to the session
    *and* to its flow-control slot, so a tag cannot be replayed onto
    another client's (or another batch id's) payload."""
    return aes_cmac(session_key,
                    client_id.encode("utf-8")
                    + b"|%d|" % batch_id + payload)


def seal_payload(session_key: bytes, client_id: str,
                 payload: bytes) -> bytes:
    """Append the :func:`batch_tag` trailer to an encoded BATCH payload.

    The tag rides *outside* the canonical JSON, after it: the frontend's
    2-comma :func:`batch_id_of` scan and the ``'["e"'`` fast-path prefix
    both still work on the sealed bytes, so the frontend keeps never
    decoding events -- only the owning worker splits and verifies the
    trailer."""
    return payload + batch_tag(session_key, client_id,
                               batch_id_of(payload), payload)


def decode_message(payload: bytes) -> Tuple:
    """Decode one unframed wire payload to ``(tag, *fields)``.

    BATCH payloads come back as ``("e", batch_id, [SecurityEvent, ...])``
    -- the inverse of :func:`encode_batch`, hypothesis-tested
    byte-identical on the round trip.  Events go through the validating
    :func:`~repro.soc.events.event_from_obj`.  Unknown tags and
    schema-violating events raise
    :class:`~repro.soc.store.CorruptRecord` (a framed-but-nonsense
    payload is rejected whole, never half-interpreted).
    """
    try:
        obj = json.loads(payload.decode("utf-8"))
        tag = obj[0]
        if tag == _T_BATCH:
            return (_T_BATCH, int(obj[1]), list(map(event_from_obj, obj[2])))
        if tag == _T_ACK:
            return (_T_ACK, int(obj[1]), int(obj[2]), int(obj[3]))
        if tag == _T_HELLO:
            return (_T_HELLO, obj[1], int(obj[2]))
        if tag == _T_WELCOME:
            return (_T_WELCOME, int(obj[1]), int(obj[2]), int(obj[3]))
        if tag == _T_CHALLENGE:
            return (_T_CHALLENGE, str(obj[1]))
        if tag == _T_AUTH:
            return (_T_AUTH, str(obj[1]))
        if tag == _T_REFUSED:
            return (_T_REFUSED, int(obj[1]), int(obj[2]))
        if tag in (_T_SUPPRESS, _T_RESUME, _T_BYE):
            return (tag,)
    except CorruptRecord:
        raise
    except Exception as exc:
        raise CorruptRecord(f"undecodable wire payload: {exc}") from exc
    raise CorruptRecord(f"unknown wire tag {tag!r}")


def batch_id_of(payload: bytes) -> int:
    """Fast batch-id extraction from a raw BATCH payload -- a two-comma
    scan, no JSON parse.  This is the *only* field the frontend reads
    from a batch; everything else is decoded by the owning worker.

    A malformed payload (missing comma, non-integer id) raises
    :class:`~repro.soc.store.CorruptRecord`, never a bare
    ``ValueError``: the frontend's one deliberate drop-the-connection
    path classifies it, instead of an unclassified error killing the
    reader coroutine."""
    try:
        first = payload.index(b",")
        return int(payload[first + 1:payload.index(b",", first + 1)])
    except ValueError as exc:
        raise CorruptRecord(
            f"malformed BATCH payload (no scannable batch id): {exc}"
        ) from exc


class FrameStreamDecoder:
    """Incremental decoder for a TCP stream of ``u32len|CRC32`` frames.

    ``feed(data)`` returns every whole, CRC-valid payload completed by
    ``data`` (zero or more) and buffers any trailing partial frame -- a
    torn frame is simply *incomplete*, never delivered.  Damage that is
    provable (CRC mismatch, or a length field beyond ``max_frame_bytes``)
    raises :class:`~repro.soc.store.CorruptRecord`: on a TCP stream there
    is no resynchronization point after a bad header, so the connection
    must be dropped, mirroring how the log rejects a corrupt record
    before the tail.
    """

    def __init__(self, max_frame_bytes: int = 1 << 24) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buf = bytearray()
        self.frames_decoded = 0
        #: Bytes this decoder *accepted* (delivered or buffered toward a
        #: frame).  Data that provoked a CorruptRecord is counted in
        #: ``bytes_rejected`` instead -- an attacker's oversized-header
        #: probe must not inflate the accepted-byte accounting the
        #: pre-auth byte cap reads.
        self.bytes_fed = 0
        self.bytes_rejected = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> List[bytes]:
        self._buf += data
        out: List[bytes] = []
        buf = self._buf
        hdr = FRAME_HEADER.size  # the log's record header
        pos = 0
        try:
            while len(buf) - pos >= hdr:
                length = int.from_bytes(buf[pos:pos + 4], "little")
                if length > self.max_frame_bytes:
                    raise CorruptRecord(
                        f"frame length {length} exceeds "
                        f"{self.max_frame_bytes}")
                end = pos + hdr + length
                if len(buf) < end:
                    break
                # unframe_payload re-checks length and CRC -- one code
                # path for wire frames, log records, and shipments.
                out.append(unframe_payload(bytes(buf[pos:end])))
                self.frames_decoded += 1
                pos = end
        except CorruptRecord:
            self.bytes_rejected += len(data)
            raise
        self.bytes_fed += len(data)
        if pos:
            del buf[:pos]
        return out


# ----------------------------------------------------------------------
# Worker core: one shard's full analytic stack
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ServiceConfig:
    """Per-worker analytic configuration (picklable -- it crosses the
    ``multiprocessing`` boundary at worker spawn).

    Correlation-hygiene parameters mirror
    :class:`~repro.soc.center.SecurityOperationsCenter`; the ingest queue
    is sized for a network front door (deep queue, generous batch) rather
    than a simulated capacity budget, and ``fsync="never"`` keeps the
    durable log OS-buffered: :meth:`~repro.soc.center.SecurityOperations\
Center.service_pump` flushes after every handoff, so a worker *process*
    kill loses nothing acknowledged (machine-crash durability is the
    operator's fsync-policy knob, priced by the store microbench)."""

    window_s: float = 8.0
    k: int = 3
    dedup_window_s: float = 4.0
    max_lateness_s: float = 2.0
    queue_capacity: int = 1 << 16
    batch_size: int = 256
    shed_policy_value: str = "lowest-severity"
    snapshot_every_pumps: int = 256
    fsync: str = "never"
    audit: bool = True
    #: Fleet key material for CMAC-authenticated sessions.  ``None``
    #: (default) keeps the PR 7 plain protocol; set, the handshake
    #: becomes HELLO -> CHALLENGE -> AUTH -> WELCOME and every BATCH
    #: payload must carry a :func:`batch_tag` trailer the owning worker
    #: verifies (the per-vehicle session key is re-derived on both
    #: sides via :func:`derive_session_key` -- never distributed).
    fleet_key: Optional[bytes] = None


def worker_root(root, index: int) -> Path:
    """Durable-store root for shard worker ``index`` under the service
    root (one independent store per worker -- recovery is per worker)."""
    return Path(root) / f"worker-{index:02d}"


class _HandoffJournal:
    """Append-only CRC-framed record of ``handoff seq -> ack tuples``.

    The exactly-once half of the auto-restart protocol.  The event log's
    pump marker is the commit point (restart truncates the log back to
    the last marker and replays to it), so the worker's invariant is
    ``handoff seq == pump number``: a resubmitted handoff with
    ``seq <= recovered pump_no`` was already fully processed and sealed
    -- re-running it would double-admit -- and the only thing the
    restarted worker still owes the frontend is the *ack report* the old
    process died holding.  This sidecar preserves exactly that: each
    entry is written (and flushed) between the handoff's batch records
    and its marker, so any sealed handoff provably has its acks on disk.

    A separate file from the event log on purpose: the log bytes must
    stay byte-identical to an uninterrupted twin run, and twin runs
    never crash.  Torn tails are tolerated the same way the log's are
    (valid-prefix scan); the file is bounded by periodic rewrite --
    only recent seqs can ever be resubmitted (the frontend's in-flight
    ledger is shallow), so old entries are dead weight.
    """

    def __init__(self, path, keep: int = 256) -> None:
        self.path = Path(path)
        self.keep = keep
        self.entries: Dict[int, Tuple[Tuple[int, int, int, int], ...]] = {}
        if self.path.exists():
            payloads, _ = scan_valid_prefix(self.path)
            for payload in payloads:
                obj = json.loads(payload.decode("utf-8"))
                self.entries[int(obj[1])] = tuple(
                    tuple(int(x) for x in ack) for ack in obj[2])
        else:
            self.path.write_bytes(SEGMENT_MAGIC)
        self._fh = open(self.path, "ab")

    def lookup(self, seq: int) -> Tuple[Tuple[int, int, int, int], ...]:
        return self.entries.get(seq, ())

    def record(self, seq: int,
               acks: Sequence[Tuple[int, int, int, int]]) -> None:
        self.entries[seq] = tuple(tuple(a) for a in acks)
        self._fh.write(frame_payload(canonical_dumps(
            ["j", seq, [list(a) for a in acks]])))
        # Flushed, not fsynced: the journal only needs to be as durable
        # as the pump marker it precedes (the log's fsync policy knob
        # governs machine-crash durability for both).
        self._fh.flush()
        if len(self.entries) > 2 * self.keep:
            self._rewrite()

    def _rewrite(self) -> None:
        recent = sorted(self.entries)[-self.keep:]
        self.entries = {seq: self.entries[seq] for seq in recent}
        self._fh.close()
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write(SEGMENT_MAGIC)
            for seq in recent:
                fh.write(frame_payload(canonical_dumps(
                    ["j", seq, [list(a) for a in self.entries[seq]]])))
        os.replace(tmp, self.path)
        self._fh = open(self.path, "ab")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class WorkerCore:
    """One shard worker's state: a single-shard observe-only
    :class:`~repro.soc.center.SecurityOperationsCenter` (ingest pipeline,
    correlation engine, incident tracker, durable store) plus the wire
    decode loop.  Runs identically inline (fallback mode) or inside a
    worker process -- the process wrapper is pure transport.
    """

    def __init__(self, index: int, root=None,
                 config: Optional[ServiceConfig] = None,
                 recover: bool = False) -> None:
        from repro.soc.ingest import ShedPolicy  # local: avoid cycle at import

        self.index = index
        self.config = config = config or ServiceConfig()
        store = None
        recovered = None
        if root is not None:
            store = DurableStore(worker_root(root, index),
                                 fsync=config.fsync)
            if recover:
                # Auto-restart path: truncate the log back to the last
                # pump marker (the commit point), then rebuild analytic
                # state exactly at that handoff boundary.  The frontend
                # resubmits everything past it, and re-processing those
                # handoffs re-archives the exact bytes the twin wrote.
                store.log.truncate_after_last_mark()
                try:
                    recovered = recover_soc_state(
                        store, mark_boundary_only=True)
                except RuntimeError:  # pragma: no cover - killed pre-snap-0
                    recovered = None  # nothing recoverable: start fresh
        elif recover:
            raise ValueError("recover=True requires a durable root")
        self.soc = SecurityOperationsCenter(
            Simulator(), FleetModel(0, []),
            queue_capacity=config.queue_capacity,
            batch_size=config.batch_size,
            shed_policy=ShedPolicy(config.shed_policy_value),
            window_s=config.window_s, k=config.k,
            dedup_window_s=config.dedup_window_s,
            max_lateness_s=config.max_lateness_s,
            respond=False, num_shards=1, audit=config.audit,
            store=store,
            snapshot_every_pumps=config.snapshot_every_pumps,
        )
        if recovered is not None:
            # Adopt *before* start_service(): the arming snapshot must
            # capture the recovered state, not clobber the latest good
            # snapshot with a fresh empty one.
            self.soc.adopt_analytics(recovered)
        self.soc.start_service()
        self._journal = (_HandoffJournal(worker_root(root, index)
                                         / "handoff-journal.log")
                         if root is not None else None)
        self._session_keys: Dict[str, bytes] = {}
        self.handoffs = 0
        self.events_in = 0
        self.events_dispatched = 0
        self.decode_errors = 0
        self.cmac_rejected = 0
        self.replayed_handoffs = 0
        self.handoff_latency_sum_s = 0.0
        self.handoff_latency_max_s = 0.0

    def _open_sealed(self, client_id: str, batch_id: int,
                     payload: bytes) -> Optional[bytes]:
        """Split and verify an authenticated BATCH payload's CMAC
        trailer; returns the inner payload, or ``None`` on a missing or
        tampered tag (constant-time compare via ``cmac_verify``)."""
        if len(payload) <= BATCH_TAG_LEN:
            return None
        body, tag = payload[:-BATCH_TAG_LEN], payload[-BATCH_TAG_LEN:]
        key = self._session_keys.get(client_id)
        if key is None:
            key = self._session_keys[client_id] = derive_session_key(
                self.config.fleet_key, client_id)
        if not cmac_verify(key,
                           client_id.encode("utf-8") + b"|%d|" % batch_id
                           + body, tag):
            return None
        return body

    def ingest_handoff(self, t_send: float,
                       items: Sequence[Tuple[int, str, int, bytes]],
                       seq: int = -1,
                       t_mono: Optional[float] = None) -> "WorkerReport":
        """Process one frontend handoff: verify each batch's CMAC
        trailer (authenticated mode), decode it, admit its events at
        ``t_send`` (the frontend's routing timestamp, so one handoff is
        one deterministic ingest instant -- and the pump marker's
        recorded time, which replay must reproduce), dispatch everything
        via ``service_pump``, and report per-batch admission counts for
        the frontend's ACKs.

        ``seq`` is the frontend's per-shard handoff sequence number; the
        worker maintains ``seq == pump number``.  A resubmitted handoff
        whose ``seq`` is already sealed (``<= pump_no``) is *not*
        re-processed -- its recorded acks come back from the handoff
        journal, which is what makes crash + resubmit exactly-once.

        A payload that fails to decode is refused whole (``accepted=-1``
        in the report -- the frontend closes that connection), never
        half-admitted; a tampered or missing CMAC trailer likewise
        refuses whole with ``accepted=-2`` (counted separately: a bad
        tag is an authentication event, not a framing accident).
        ``t_mono`` (the frontend's monotonic send stamp) feeds only the
        latency metrics -- never admission or marker times.
        """
        soc = self.soc
        if 0 <= seq <= soc._pump_no:
            self.replayed_handoffs += 1
            acks = self._journal.lookup(seq) if self._journal else ()
            return WorkerReport(shard=self.index, acks=tuple(acks),
                                dispatched=0,
                                congested=soc.pipeline.congested,
                                pump_no=soc._pump_no,
                                queue_depth=soc.pipeline.queue_depth,
                                handoff_seq=seq)
        pipeline = soc.pipeline
        offer = pipeline.offer
        authenticated = self.config.fleet_key is not None
        acks: List[Tuple[int, int, int, int]] = []
        for conn, client_id, batch_id, payload in items:
            if authenticated:
                payload = self._open_sealed(client_id, batch_id, payload)
                if payload is None:
                    self.cmac_rejected += 1
                    acks.append((conn, batch_id, 0, -2))
                    continue
            try:
                _, _, events = decode_message(payload)
            except CorruptRecord:
                self.decode_errors += 1
                acks.append((conn, batch_id, 0, -1))
                continue
            accepted = 0
            for event in events:
                accepted += offer(t_send, event)
            self.events_in += len(events)
            acks.append((conn, batch_id, len(events), accepted))
        # Sample the existing source-suppression signal *after* admission
        # (the queue is at its handoff peak) -- this is the bit the
        # frontend propagates to clients as SUPPRESS/RESUME.
        congested = pipeline.congested
        # Journal between the archived batches and the marker: a sealed
        # handoff (marker durable) provably has its acks recorded, and a
        # journaled-but-unsealed one is re-run whole after log truncation
        # (the stale entry is simply overwritten).
        pre_mark = None
        if self._journal is not None and seq >= 0:
            pre_mark = lambda: self._journal.record(seq, acks)  # noqa: E731
        dispatched = soc.service_pump(t_send, pre_mark=pre_mark)
        self.events_dispatched += dispatched
        self.handoffs += 1
        if t_mono is not None:
            wait = max(0.0, time.monotonic() - t_mono)
            self.handoff_latency_sum_s += wait
            if wait > self.handoff_latency_max_s:
                self.handoff_latency_max_s = wait
        return WorkerReport(shard=self.index, acks=tuple(acks),
                            dispatched=dispatched, congested=congested,
                            pump_no=soc._pump_no,
                            queue_depth=pipeline.queue_depth,
                            handoff_seq=seq)

    def metrics(self) -> Dict[str, float]:
        """The center's full metrics dict plus service-side counters."""
        out = self.soc.metrics()
        out["service_handoffs"] = float(self.handoffs)
        out["service_events_in"] = float(self.events_in)
        out["service_decode_errors"] = float(self.decode_errors)
        out["service_cmac_rejected"] = float(self.cmac_rejected)
        out["service_replayed_handoffs"] = float(self.replayed_handoffs)
        out["service_handoff_latency_max_s"] = self.handoff_latency_max_s
        out["service_handoff_latency_mean_s"] = (
            self.handoff_latency_sum_s / self.handoffs if self.handoffs
            else 0.0)
        return out

    def close(self) -> None:
        """Final snapshot + orderly store close (clean shutdown path;
        the crash path needs neither -- that is the point)."""
        if self._journal is not None:
            self._journal.close()
        if self.soc.store is not None:
            self.soc.save_snapshot()
            self.soc.store.close()


@dataclass(frozen=True)
class WorkerReport:
    """One handoff's completion report (worker -> frontend)."""

    shard: int
    #: per client batch: (conn token, batch id, offered, accepted);
    #: accepted == -1 flags an undecodable payload (connection fault),
    #: accepted == -2 a tampered/missing CMAC trailer (auth fault).
    acks: Tuple[Tuple[int, int, int, int], ...]
    dispatched: int
    congested: bool
    pump_no: int
    queue_depth: int
    #: The frontend's per-shard handoff sequence number this report
    #: answers; the frontend's in-flight ledger pops it exactly once
    #: (a duplicate -- e.g. a pre-crash report racing the restarted
    #: worker's journal replay -- is dropped, not double-accounted).
    handoff_seq: int = -1


def recover_worker(root, index: int,
                   for_restart: bool = False) -> RecoveredAnalytics:
    """Rebuild shard worker ``index``'s analytic state from its durable
    store -- the per-worker crash-recovery entry point (snapshot +
    log-suffix replay via :func:`~repro.soc.center.recover_soc_state`).

    ``for_restart`` applies the live auto-restart discipline offline:
    stop at the last sealed handoff boundary (trailing batch records
    past the last pump marker belong to a handoff the frontend will
    resubmit) instead of replaying every surviving record."""
    return recover_soc_state(DurableStore(worker_root(root, index)),
                             mark_boundary_only=for_restart)


# ----------------------------------------------------------------------
# Backends: inline (deterministic fallback) and multiprocess
# ----------------------------------------------------------------------

class _InlineBackend:
    """Single-process fallback: handoffs run synchronously in the
    caller.  Deterministic -- same cores, same wire path, no queues --
    which is what keeps the byte-identity differential tests meaningful.
    """

    mode = "inline"

    def __init__(self, num_workers: int, root, config: ServiceConfig) -> None:
        self.root = root
        self.config = config
        self.cores = [WorkerCore(i, root, config) for i in range(num_workers)]
        self._reports: List[WorkerReport] = []

    def submit(self, shard: int, seq: int, t_send: float,
               t_mono: Optional[float],
               items: Sequence[Tuple[int, str, int, bytes]]) -> bool:
        core = self.cores[shard]
        if core is None:
            # Dead worker: the failed submit *is* the exit sentinel the
            # supervisor keys off in this backend.
            return False
        self._reports.append(core.ingest_handoff(t_send, items, seq=seq))
        return True

    def get_report(self, timeout: float = 0.0) -> Optional[WorkerReport]:
        return self._reports.pop(0) if self._reports else None

    def worker_metrics(self) -> List[Dict[str, float]]:
        return [core.metrics() for core in self.cores]

    def kill(self, shard: int) -> None:
        """Simulate a worker crash: drop the core on the floor without
        snapshot or close (its durable store is the only survivor)."""
        self.cores[shard] = None

    def dead_workers(self) -> List[int]:
        return [i for i, core in enumerate(self.cores) if core is None]

    def restart(self, shard: int, min_capacity: int = 0) -> None:
        """Rebuild a killed core from its durable store (deterministic
        inline twin of the process backend's respawn)."""
        if self.root is None:
            raise RuntimeError("cannot restart a worker without a "
                               "durable root")
        self.cores[shard] = WorkerCore(shard, self.root, self.config,
                                       recover=True)

    def close(self) -> List[Dict[str, float]]:
        metrics = [core.metrics() if core is not None else {}
                   for core in self.cores]
        for core in self.cores:
            if core is not None:
                core.close()
        return metrics


def _worker_main(index: int, root, config: ServiceConfig,
                 in_q: "mp.Queue", out_q: "mp.Queue",
                 recover: bool = False) -> None:
    # Child-process body: coverage tooling cannot observe it, and its
    # logic is the already-tested WorkerCore -- this loop is transport.
    # Latency math uses the monotonic clock only (CLOCK_MONOTONIC is
    # system-wide, so the frontend's t_mono stamp is comparable here);
    # admission and marker times come from t_send, never a local read.
    core = WorkerCore(index, root, config, recover=recover)  # pragma: no cover
    while True:  # pragma: no cover
        msg = in_q.get()
        if msg[0] == "b":
            report = core.ingest_handoff(msg[2], msg[4], seq=msg[1],
                                         t_mono=msg[3])
            out_q.put(("r", report))
        elif msg[0] == "stop":
            core.close()
            out_q.put(("x", index, core.metrics()))
            return


class _ProcessBackend:
    """One OS process per shard worker, fed over bounded
    ``multiprocessing`` queues, each worker reporting on its own
    completion queue.  A full feed queue refuses the submit -- the
    frontend keeps the handoff buffered and raises SUPPRESS, so overload
    degrades explicitly at the network edge instead of growing an
    unbounded pickle backlog.

    ``dead_workers``/``restart`` are the supervisor surface: a dead
    child (SIGKILL, OOM, crash -- ``is_alive()`` is the exit sentinel)
    is respawned with ``recover=True`` on a **fresh** feed queue and a
    fresh completion queue.  The old queues' contents are deliberately
    discarded: the frontend's in-flight ledger is the source of truth,
    it resubmits every unacked handoff in sequence order with the
    original timestamps, and the recovered worker replays the acks its
    journal owes.  Completion queues are per worker because a SIGKILL
    can land while the worker's feeder thread holds the queue's write
    lock; on a shared queue that lock is never released, and every
    other worker's reports stall behind it for good."""

    mode = "process"

    def __init__(self, num_workers: int, root, config: ServiceConfig,
                 queue_max_handoffs: int = 16) -> None:
        self.root = root
        self.config = config
        self.queue_max_handoffs = queue_max_handoffs
        ctx = mp.get_context()
        self.in_qs = [ctx.Queue(maxsize=queue_max_handoffs)
                      for _ in range(num_workers)]
        self.out_qs = [ctx.Queue() for _ in range(num_workers)]
        self.procs = [
            ctx.Process(target=_worker_main,
                        args=(i, root, config, self.in_qs[i], self.out_qs[i]),
                        daemon=True)
            for i in range(num_workers)
        ]
        for proc in self.procs:
            proc.start()
        # Completion queues of dead workers.  The collector thread may
        # still be waiting on one when ``restart`` swaps it out, so they
        # are closed only at ``close``.
        self._retired: List["mp.Queue"] = []
        self._next_shard = 0
        self._final: Dict[int, Dict[str, float]] = {}
        self._stopping = False

    def submit(self, shard: int, seq: int, t_send: float,
               t_mono: Optional[float],
               items: Sequence[Tuple[int, str, int, bytes]]) -> bool:
        try:
            # One pickle per drained handoff batch, never per event.
            self.in_qs[shard].put_nowait(
                ("b", seq, t_send, t_mono, list(items)))
            return True
        except queue_mod.Full:
            return False

    def get_report(self, timeout: float = 0.0) -> Optional[WorkerReport]:
        deadline = time.monotonic() + timeout
        while True:
            queues = list(self.out_qs)
            n = len(queues)
            # Start after the last shard served, so one busy worker
            # cannot starve the others' reports.
            for k in range(n):
                shard = (self._next_shard + k) % n
                try:
                    msg = queues[shard].get_nowait()
                except queue_mod.Empty:
                    continue
                self._next_shard = shard + 1
                if msg[0] == "x":
                    self._final[msg[1]] = msg[2]
                    return None
                return msg[1]
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not mp.connection.wait(
                    [q._reader for q in queues], remaining):
                return None

    def kill(self, shard: int) -> None:
        """SIGKILL one worker -- the crash the per-worker durable store
        exists for."""
        self.procs[shard].kill()
        self.procs[shard].join()

    def dead_workers(self) -> List[int]:
        if self._stopping:
            return []
        return [i for i, proc in enumerate(self.procs)
                if not proc.is_alive() and proc.exitcode is not None]

    def restart(self, shard: int, min_capacity: int = 0) -> None:
        """Respawn a dead shard worker in recover mode on a fresh feed
        queue (sized to hold at least the frontend's pending
        resubmissions)."""
        dead = self.procs[shard]
        if dead.is_alive():  # pragma: no cover - caller checks first
            raise RuntimeError(f"worker {shard} is still alive")
        dead.join()
        old_q = self.in_qs[shard]
        old_q.close()
        old_q.cancel_join_thread()
        self._retired.append(self.out_qs[shard])
        ctx = mp.get_context()
        self.in_qs[shard] = ctx.Queue(
            maxsize=max(self.queue_max_handoffs, min_capacity))
        self.out_qs[shard] = ctx.Queue()
        self.procs[shard] = ctx.Process(
            target=_worker_main,
            args=(shard, self.root, self.config, self.in_qs[shard],
                  self.out_qs[shard], True),
            daemon=True)
        self.procs[shard].start()

    def close(self) -> List[Dict[str, float]]:
        self._stopping = True
        expected = 0
        for shard, proc in enumerate(self.procs):
            if proc.is_alive():
                self.in_qs[shard].put(("stop",))
                expected += 1
        deadline = time.monotonic() + 30.0
        while len(self._final) < expected and time.monotonic() < deadline:
            # Parks each worker's final metrics; late reports are dropped.
            self.get_report(timeout=0.2)
        for proc in self.procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker backstop
                proc.kill()
        for q in self._retired:
            q.close()
        return [self._final.get(i, {}) for i in range(len(self.procs))]


def shard_for_client(client_id: str, num_workers: int) -> int:
    """Connection-level shard key: CRC-32 of the client id (process-
    stable, like every shard key in :mod:`repro.soc.shard`)."""
    return stable_hash(client_id) % num_workers


# ----------------------------------------------------------------------
# The asyncio frontend
# ----------------------------------------------------------------------

@dataclass
class _Conn:
    """Frontend-side connection state.

    ``suppressed`` is the *effective* state last written to the wire; it
    is the OR of the shard-wide backpressure signal and this
    connection's own ``quota_suppressed`` (token bucket exhausted)."""

    conn_id: int
    client_id: str
    shard: int
    writer: asyncio.StreamWriter
    suppressed: bool = False
    batches: int = 0
    events_offered: int = 0
    events_accepted: int = 0
    bucket: Optional[TokenBucket] = None
    quota_suppressed: bool = False
    quota_refused: int = 0


class IngestService:
    """The ingest tier behind the TCP server: shard buffers, worker
    backend, flow accounting, and the SUPPRESS/RESUME state machine.

    Usable without any network at all (the differential and recovery
    tests drive :meth:`route` / :meth:`flush` / :meth:`poll_completions`
    directly); :class:`IngestServer` adds the asyncio transport on top.

    ``suppress_after`` / ``resume_below`` bound the *outstanding
    handoffs* per shard -- the frontend's own watermark on top of the
    worker-sampled queue-congestion signal; crossing either raises
    SUPPRESS to every connection on the shard.

    Three hardening layers ride on top of the plain service:

    * **Authenticated sessions** -- give the :class:`ServiceConfig` a
      ``fleet_key`` and the server runs a CMAC challenge-response
      handshake, and every BATCH must carry a :func:`batch_tag` trailer
      the *owning worker* verifies (the frontend still never decodes
      events).
    * **Per-client quotas** -- ``quota_bytes_per_s`` arms a
      byte-denominated :class:`~repro.soc.ingest.TokenBucket` per
      connection: over-quota batches are hard-refused at
      :meth:`route` (REFUSED frame, credit returned, counted in
      ``quota_refused``) and the connection gets a *targeted* SUPPRESS
      until its bucket refills.
    * **Worker auto-restart** -- with a durable ``root``,
      :meth:`check_workers` respawns dead workers (snapshot +
      log-suffix replay) and resubmits every unacked handoff from the
      in-flight ledger in sequence order; the per-handoff journal makes
      the replay exactly-once, so clients never lose an ACK for an
      admitted batch.
    """

    def __init__(self, num_workers: int = 1, *, mode: str = "process",
                 root=None, config: Optional[ServiceConfig] = None,
                 handoff_batch: int = 64, queue_max_handoffs: int = 16,
                 suppress_after: int = 8, resume_below: int = 2,
                 initial_credits: int = 8,
                 quota_bytes_per_s: Optional[float] = None,
                 quota_burst_bytes: Optional[float] = None,
                 quota_disconnect_after: Optional[int] = None,
                 supervise: Optional[bool] = None,
                 handshake_timeout_s: float = 5.0,
                 max_preauth_bytes: int = 4096,
                 max_half_open: int = 1024,
                 clock: Callable[[], float] = time.time,
                 mono_clock: Callable[[], float] = time.monotonic) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if mode not in ("process", "inline"):
            raise ValueError("mode must be 'process' or 'inline'")
        self.num_workers = num_workers
        self.mode = mode
        self.config = config or ServiceConfig()
        self.handoff_batch = handoff_batch
        self.suppress_after = suppress_after
        self.resume_below = resume_below
        self.initial_credits = initial_credits
        self.quota_bytes_per_s = quota_bytes_per_s
        self.quota_burst_bytes = (
            quota_burst_bytes if quota_burst_bytes is not None
            else (4.0 * quota_bytes_per_s
                  if quota_bytes_per_s is not None else None))
        self.quota_disconnect_after = quota_disconnect_after
        # Auto-restart needs a durable store to replay from; default the
        # supervisor on exactly when one exists.
        self.supervise = (root is not None) if supervise is None else supervise
        self.handshake_timeout_s = handshake_timeout_s
        self.max_preauth_bytes = max_preauth_bytes
        self.max_half_open = max_half_open
        # ``clock`` stays wall-clock: workers compare *event* timestamps
        # against t_send for lateness admission.  Deadlines, ACK latency
        # and quota buckets use ``mono_clock`` so a wall-clock step never
        # stalls a drain or starves a client.
        self.clock = clock
        self.mono_clock = mono_clock
        self.backend = (
            _InlineBackend(num_workers, root, self.config)
            if mode == "inline" else
            _ProcessBackend(num_workers, root, self.config,
                            queue_max_handoffs=queue_max_handoffs))
        self._buffers: List[List[Tuple[int, str, int, bytes]]] = [
            [] for _ in range(num_workers)]
        # In-flight ledger: per shard, seq -> (t_send, t_mono, items) for
        # every submitted-but-unreported handoff.  The supervisor replays
        # it (original timestamps, sequence order) after a restart; a
        # report pops its entry, and a report whose entry is already gone
        # is a duplicate of replayed work and is dropped whole.
        self._inflight: List[Dict[int, Tuple[float, Optional[float],
                                             List[Tuple[int, str, int,
                                                        bytes]]]]] = [
            {} for _ in range(num_workers)]
        # Handoff sequence numbers are 1-based so seq N == the worker's
        # pump_no after applying it -- the invariant replay dedup rides.
        self._next_seq = [1] * num_workers
        self._outstanding = [0] * num_workers
        self._congested = [False] * num_workers
        self._suppressed = [False] * num_workers
        self.conns: Dict[int, _Conn] = {}
        self._shard_conns: List[Dict[int, _Conn]] = [
            {} for _ in range(num_workers)]
        self._next_conn = 0
        # Flow totals (frontend truth; per-worker truth comes from
        # worker_metrics -- the service conservation test ties them).
        self.batches_routed = 0
        self.batches_acked = 0
        self.events_acked = 0
        self.events_refused = 0
        self.handoffs_submitted = 0
        self.submit_refusals = 0
        self.suppress_transitions = 0
        self.quota_refused = 0
        self.quota_refused_bytes = 0
        self.quota_disconnects = 0
        self.batches_cmac_rejected = 0
        self.batches_forgotten = 0
        self.worker_restarts = 0
        self.duplicate_reports = 0
        self.handoffs_resubmitted = 0
        self.auth_failures = 0
        self.handshake_timeouts = 0
        self.preauth_overflows = 0
        self.half_open = 0
        self.half_open_rejected = 0
        self.protocol_errors = 0
        self.closed = False
        self._final_metrics: Optional[List[Dict[str, float]]] = None

    # -- connection lifecycle ------------------------------------------
    def open_conn(self, client_id: str,
                  writer: Optional[asyncio.StreamWriter] = None) -> _Conn:
        conn = _Conn(self._next_conn, client_id,
                     shard_for_client(client_id, self.num_workers), writer)
        self._next_conn += 1
        self.conns[conn.conn_id] = conn
        self._shard_conns[conn.shard][conn.conn_id] = conn
        conn.suppressed = self._suppressed[conn.shard]
        if self.quota_bytes_per_s is not None:
            conn.bucket = TokenBucket(self.quota_bytes_per_s,
                                      self.quota_burst_bytes,
                                      now=self.mono_clock())
        return conn

    def close_conn(self, conn_id: int) -> None:
        conn = self.conns.pop(conn_id, None)
        if conn is not None:
            self._shard_conns[conn.shard].pop(conn_id, None)

    # -- ingest path ----------------------------------------------------
    def route(self, conn: _Conn, payload: bytes) -> bool:
        """Buffer one raw BATCH payload for the connection's shard; the
        batch id is scanned out, the events are not decoded here.

        Returns ``False`` when the connection's token bucket refuses the
        batch (over quota): the payload is *not* buffered, the refusal
        is counted, and the connection is put under targeted SUPPRESS
        until :meth:`_refresh_quotas` sees its bucket half-full again.
        A malformed payload raises
        :class:`~repro.soc.store.CorruptRecord` -- the caller drops the
        connection through its one deliberate protocol-fault path."""
        batch_id = batch_id_of(payload)
        if conn.bucket is not None and not conn.bucket.try_take(
                len(payload), self.mono_clock()):
            self.quota_refused += 1
            self.quota_refused_bytes += len(payload)
            conn.quota_refused += 1
            if not conn.quota_suppressed:
                conn.quota_suppressed = True
                self._sync_conn_suppression(conn)
            return False
        self._buffers[conn.shard].append(
            (conn.conn_id, conn.client_id, batch_id, payload))
        conn.batches += 1
        self.batches_routed += 1
        return True

    def buffered(self, shard: Optional[int] = None) -> int:
        if shard is not None:
            return len(self._buffers[shard])
        return sum(len(b) for b in self._buffers)

    def inflight_batches(self, shard: Optional[int] = None) -> int:
        """Batches inside submitted-but-unreported handoffs (the
        in-flight ledger) -- the third term of the service conservation
        identity."""
        shards = range(self.num_workers) if shard is None else (shard,)
        return sum(len(items)
                   for index in shards
                   for (_, _, items) in self._inflight[index].values())

    def flush(self, shard: Optional[int] = None) -> int:
        """Drain non-empty shard buffers into worker handoffs (one
        backend submit per drained buffer).  A refused submit (full feed
        queue) leaves the buffer intact and trips SUPPRESS.  Returns the
        number of handoffs submitted."""
        shards = range(self.num_workers) if shard is None else (shard,)
        submitted = 0
        t_send = self.clock()
        t_mono = self.mono_clock()
        for index in shards:
            buf = self._buffers[index]
            if not buf:
                continue
            seq = self._next_seq[index]
            if self.backend.submit(index, seq, t_send, t_mono, buf):
                self._inflight[index][seq] = (t_send, t_mono, buf)
                self._next_seq[index] = seq + 1
                self._buffers[index] = []
                self._outstanding[index] += 1
                self.handoffs_submitted += 1
                submitted += 1
            else:
                self.submit_refusals += 1
            self._update_suppression(index)
        self._refresh_quotas(t_mono)
        return submitted

    def maybe_flush(self, shard: int) -> int:
        """Flush one shard iff its buffer reached ``handoff_batch``."""
        if len(self._buffers[shard]) >= self.handoff_batch:
            return self.flush(shard)
        return 0

    def apply_report(self, report: WorkerReport
                     ) -> List[Tuple[_Conn, int, int, int]]:
        """Account one finished handoff; returns per-batch ack work
        items ``(conn, batch_id, offered, accepted)`` for live
        connections (the caller sends the ACK frames -- or drops the
        connection where ``accepted < 0`` flags an undecodable
        (``-1``) or tampered (``-2``) payload).

        A report whose ledger entry is already gone is a duplicate --
        a pre-crash report surfacing after the supervisor resubmitted
        the same handoff to the restarted worker -- and is dropped
        whole: its batches were (or will be) accounted exactly once by
        the report that popped the entry."""
        seq = report.handoff_seq
        if seq >= 0 and self._inflight[report.shard].pop(seq, None) is None:
            self.duplicate_reports += 1
            return []
        out: List[Tuple[_Conn, int, int, int]] = []
        self._outstanding[report.shard] -= 1
        self._congested[report.shard] = report.congested
        for conn_id, batch_id, offered, accepted in report.acks:
            self.batches_acked += 1
            conn = self.conns.get(conn_id)
            if accepted >= 0:
                self.events_acked += accepted
                self.events_refused += offered - accepted
            elif accepted == -2:
                self.batches_cmac_rejected += 1
            if conn is not None:
                out.append((conn, batch_id, offered, accepted))
        self._update_suppression(report.shard)
        return out

    def poll_completions(self, timeout: float = 0.0
                         ) -> List[Tuple[_Conn, int, int, int]]:
        """Collect every finished handoff via :meth:`apply_report`."""
        out: List[Tuple[_Conn, int, int, int]] = []
        while True:
            report = self.backend.get_report(timeout=timeout)
            timeout = 0.0  # only the first get may block
            if report is None:
                break
            out.extend(self.apply_report(report))
        return out

    # -- backpressure ---------------------------------------------------
    def _sync_conn_suppression(self, conn: _Conn) -> None:
        """Reconcile one connection's wire-visible SUPPRESS state with
        its *effective* state (shard-wide backpressure OR its own quota
        suppression), writing a frame only on a transition and only to a
        transport that is still open -- a connection that raced its own
        close against a shard transition must not be written to."""
        want = self._suppressed[conn.shard] or conn.quota_suppressed
        if want == conn.suppressed:
            return
        conn.suppressed = want
        if conn.writer is not None and not conn.writer.is_closing():
            conn.writer.write(frame_payload(
                encode_suppress() if want else encode_resume()))

    def _update_suppression(self, shard: int) -> None:
        """Recompute the shard's SUPPRESS state from the outstanding-
        handoff watermark OR the worker's own congestion signal."""
        if self._suppressed[shard]:
            want = (self._outstanding[shard] >= self.resume_below
                    or len(self._buffers[shard]) >= self.handoff_batch
                    or self._congested[shard])
        else:
            want = (self._outstanding[shard] >= self.suppress_after
                    or len(self._buffers[shard])
                    >= self.handoff_batch * self.suppress_after
                    or self._congested[shard])
        if want != self._suppressed[shard]:
            self._suppressed[shard] = want
            self.suppress_transitions += 1
            for conn in self._shard_conns[shard].values():
                self._sync_conn_suppression(conn)

    def _refresh_quotas(self, now: Optional[float] = None) -> None:
        """Lift targeted SUPPRESS from quota-throttled connections whose
        bucket has refilled to half its burst (hysteresis: resuming at
        the refusal threshold would flap on every refill tick)."""
        if self.quota_bytes_per_s is None:
            return
        if now is None:
            now = self.mono_clock()
        for conn in self.conns.values():
            if (conn.quota_suppressed and conn.bucket is not None
                    and conn.bucket.level(now) >= conn.bucket.burst / 2.0):
                conn.quota_suppressed = False
                self._sync_conn_suppression(conn)

    def suppressed(self, shard: int) -> bool:
        return self._suppressed[shard]

    # -- worker failure: lossy kill vs supervised restart ---------------
    def kill_worker(self, shard: int) -> None:
        """Crash one shard worker (SIGKILL in process mode, dropped
        core inline) and *forget* its in-flight work -- the lossy
        operator-level path the kill-a-worker recovery tests drive.
        Anything buffered or in flight for the shard is lost unacked
        (counted in ``batches_forgotten``): the client-side credit
        ledger sees exactly which batches died.  Compare
        :meth:`sigkill_worker`, which keeps the ledger so the
        supervisor can replay."""
        self.backend.kill(shard)
        self.batches_forgotten += (len(self._buffers[shard])
                                   + self.inflight_batches(shard))
        self._buffers[shard] = []
        self._inflight[shard].clear()
        self._outstanding[shard] = 0
        # A crash empties the shard's pipeline: recompute SUPPRESS now,
        # or surviving connections stay muted until unrelated traffic
        # next touches the shard.
        self._congested[shard] = False
        self._update_suppression(shard)

    def sigkill_worker(self, shard: int) -> None:
        """Crash one shard worker *without* forgetting its work: the
        in-flight ledger and shard buffer survive, so
        :meth:`check_workers` can restart the worker and replay every
        unacked handoff -- the MTTR / zero-ack-loss path."""
        self.backend.kill(shard)

    def check_workers(self) -> int:
        """Supervisor tick: detect dead workers (exit sentinel), respawn
        each in recover mode (snapshot + log-suffix replay of its
        durable store), and resubmit its unacked handoffs from the
        in-flight ledger in sequence order with their *original*
        timestamps -- replay must be deterministic, not re-stamped.
        Returns the number of workers restarted."""
        if not self.supervise or self.closed:
            return 0
        restarted = 0
        for shard in self.backend.dead_workers():
            pending = sorted(self._inflight[shard].items())
            self.backend.restart(shard, min_capacity=len(pending) + 1)
            self.worker_restarts += 1
            restarted += 1
            self._outstanding[shard] = 0
            self._congested[shard] = False
            for seq, (t_send, t_mono, items) in pending:
                if self.backend.submit(shard, seq, t_send, t_mono, items):
                    self._outstanding[shard] += 1
                    self.handoffs_resubmitted += 1
                else:  # pragma: no cover - queue sized for all pending
                    self.submit_refusals += 1
            self._update_suppression(shard)
        return restarted

    # -- shutdown / observability --------------------------------------
    def drain_and_close(self, poll_interval_s: float = 0.01,
                        timeout_s: float = 30.0) -> List[Dict[str, float]]:
        """Flush every buffer, wait for all outstanding handoffs, then
        stop the workers; returns their final metrics dicts.  The
        deadline is monotonic -- a wall-clock step (NTP slew, operator
        `date`) must never cut a drain short or hang it."""
        if self.closed:
            return self._final_metrics or []
        deadline = self.mono_clock() + timeout_s
        while (self.buffered() or any(x > 0 for x in self._outstanding)):
            self.check_workers()
            self.flush()
            self.poll_completions(timeout=poll_interval_s)
            if self.mono_clock() > deadline:  # pragma: no cover - backstop
                break
        self._final_metrics = self.backend.close()
        self.closed = True
        return self._final_metrics

    def audit_conservation(self) -> None:
        """Assert the service batch-flow identity (raises
        :class:`~repro.soc.shard.ConservationError` on violation)."""
        ConservationAudit().check_service(self)

    def worker_metrics(self) -> List[Dict[str, float]]:
        """Final per-worker metrics (after :meth:`drain_and_close`); the
        inline backend can also report live."""
        if self._final_metrics is not None:
            return self._final_metrics
        if isinstance(self.backend, _InlineBackend):
            return self.backend.worker_metrics()
        raise RuntimeError("process-mode metrics are collected at "
                           "drain_and_close()")

    def metrics(self) -> Dict[str, float]:
        """Frontend flow counters (live at any time)."""
        return {
            "batches_routed": float(self.batches_routed),
            "batches_acked": float(self.batches_acked),
            "events_acked": float(self.events_acked),
            "events_refused": float(self.events_refused),
            "handoffs_submitted": float(self.handoffs_submitted),
            "submit_refusals": float(self.submit_refusals),
            "suppress_transitions": float(self.suppress_transitions),
            "buffered": float(self.buffered()),
            "outstanding": float(sum(self._outstanding)),
            "inflight_batches": float(self.inflight_batches()),
            "connections": float(len(self.conns)),
            "quota_refused": float(self.quota_refused),
            "quota_refused_bytes": float(self.quota_refused_bytes),
            "quota_disconnects": float(self.quota_disconnects),
            "batches_cmac_rejected": float(self.batches_cmac_rejected),
            "batches_forgotten": float(self.batches_forgotten),
            "worker_restarts": float(self.worker_restarts),
            "duplicate_reports": float(self.duplicate_reports),
            "handoffs_resubmitted": float(self.handoffs_resubmitted),
            "auth_failures": float(self.auth_failures),
            "handshake_timeouts": float(self.handshake_timeouts),
            "preauth_overflows": float(self.preauth_overflows),
            "half_open_rejected": float(self.half_open_rejected),
            "protocol_errors": float(self.protocol_errors),
        }


class IngestServer:
    """The asyncio TCP frontend over an :class:`IngestService`.

    One reader coroutine per connection (HELLO -> WELCOME, then BATCH
    frames routed to shard buffers); one pump task flushing buffers
    every ``flush_interval_s`` and fanning completed handoffs back out
    as ACK frames.  In process mode a collector thread blocks on the
    workers' completion queue and wakes the loop, so ACK latency is not
    quantized to the flush interval.
    """

    def __init__(self, service: IngestService, host: str = "127.0.0.1",
                 port: int = 0, flush_interval_s: float = 0.002) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.flush_interval_s = flush_interval_s
        self._server: Optional[asyncio.AbstractServer] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._collector: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._report_wakeup: Optional[asyncio.Event] = None
        self._conn_writers: set = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._report_wakeup = asyncio.Event()
        self._pump_task = asyncio.create_task(self._pump())
        if self.service.mode == "process":
            loop = asyncio.get_running_loop()
            self._collector = threading.Thread(
                target=self._collect, args=(loop,), daemon=True)
            self._collector.start()

    def _collect(self, loop: asyncio.AbstractEventLoop) -> None:
        """Blocking completion-queue reader (thread): parks reports on
        the service and nudges the loop's pump task."""
        backend = self.service.backend
        while not self._stop.is_set():
            report = backend.get_report(timeout=0.05)
            if report is not None:
                loop.call_soon_threadsafe(self._ack_report, report)

    def _ack_report(self, report: WorkerReport) -> None:
        self._write_acks(self.service.apply_report(report))

    def _write_acks(self, items: List[Tuple[_Conn, int, int, int]]) -> None:
        service = self.service
        for conn, batch_id, offered, accepted in items:
            if accepted < 0:
                # Undecodable (-1) or tampered (-2) payload: protocol
                # fault, drop the client.
                conn.writer.close()
                service.close_conn(conn.conn_id)
                continue
            conn.events_offered += offered
            conn.events_accepted += accepted
            if not conn.writer.is_closing():
                conn.writer.write(frame_payload(
                    encode_ack(batch_id, accepted, 1)))

    async def _pump(self) -> None:
        service = self.service
        while True:
            await asyncio.sleep(self.flush_interval_s)
            service.check_workers()
            service.flush()
            if service.mode == "inline":
                self._write_acks(service.poll_completions())

    async def _handshake(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         decoder: FrameStreamDecoder
                         ) -> Tuple[Optional[_Conn], List[bytes]]:
        """Run the pre-session handshake under its limits (read
        deadline, pre-auth byte cap): plain ``HELLO -> WELCOME``, or --
        when the service holds a fleet key -- ``HELLO -> CHALLENGE ->
        AUTH -> WELCOME`` with a CMAC challenge-response proof.  Returns
        ``(conn, leftover_payloads)``; ``conn is None`` means refuse the
        connection (already counted)."""
        service = self.service
        fleet_key = service.config.fleet_key
        deadline = service.mono_clock() + service.handshake_timeout_s
        client_id: Optional[str] = None
        nonce = b""
        pending: List[bytes] = []
        while True:
            while pending:
                payload = pending.pop(0)
                try:
                    msg = decode_message(payload)
                except CorruptRecord:
                    service.protocol_errors += 1
                    return None, []
                if msg[0] == _T_HELLO and client_id is None:
                    client_id = msg[1]
                    if fleet_key is None:
                        conn = service.open_conn(client_id, writer)
                        writer.write(frame_payload(encode_welcome(
                            conn.shard, service.num_workers,
                            service.initial_credits)))
                        if conn.suppressed:
                            writer.write(frame_payload(encode_suppress()))
                        return conn, pending
                    nonce = os.urandom(16)
                    writer.write(frame_payload(encode_challenge(nonce)))
                elif msg[0] == _T_AUTH and client_id is not None:
                    key = derive_session_key(fleet_key, client_id)
                    try:
                        tag = bytes.fromhex(msg[1])
                    except ValueError:
                        tag = b""
                    if len(tag) != BATCH_TAG_LEN or not cmac_verify(
                            key, AUTH_CONTEXT + b"|"
                            + client_id.encode("utf-8") + b"|" + nonce, tag):
                        service.auth_failures += 1
                        return None, []
                    conn = service.open_conn(client_id, writer)
                    writer.write(frame_payload(encode_welcome(
                        conn.shard, service.num_workers,
                        service.initial_credits)))
                    if conn.suppressed:
                        writer.write(frame_payload(encode_suppress()))
                    return conn, pending
                else:
                    # Anything else pre-session (BATCH before HELLO,
                    # duplicate HELLO, AUTH without challenge) is a
                    # protocol fault.
                    service.protocol_errors += 1
                    return None, []
            try:
                data = await asyncio.wait_for(
                    reader.read(1 << 16),
                    timeout=deadline - service.mono_clock())
            except (asyncio.TimeoutError, ValueError):
                service.handshake_timeouts += 1
                return None, []
            if not data:
                return None, []
            try:
                pending = decoder.feed(data)
            except CorruptRecord:
                service.protocol_errors += 1
                return None, []
            if decoder.bytes_fed > service.max_preauth_bytes:
                service.preauth_overflows += 1
                return None, []

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        service = self.service
        if service.half_open >= service.max_half_open:
            # Too many connections parked pre-auth: refuse at accept,
            # before this one can hold handshake state open.
            service.half_open_rejected += 1
            writer.close()
            return
        decoder = FrameStreamDecoder()
        service.half_open += 1
        self._conn_writers.add(writer)
        try:
            try:
                conn, pending = await self._handshake(reader, writer,
                                                      decoder)
            finally:
                service.half_open -= 1
            if conn is None:
                writer.close()
                return
            await self._conn_loop(service, conn, reader, writer, decoder,
                                  pending)
        finally:
            self._conn_writers.discard(writer)

    async def _conn_loop(self, service, conn, reader, writer, decoder,
                         pending) -> None:
        try:
            while True:
                for payload in pending:
                    if payload[:4] == b'["e"':
                        # route() raises CorruptRecord on a malformed
                        # BATCH payload -- same deliberate drop path as
                        # an undecodable frame stream.
                        if service.route(conn, payload):
                            service.maybe_flush(conn.shard)
                            continue
                        # Over quota: hard-refuse, return the credit so
                        # the client's ledger stays live.
                        writer.write(frame_payload(
                            encode_refused(batch_id_of(payload), 1)))
                        threshold = service.quota_disconnect_after
                        if (threshold is not None
                                and conn.quota_refused >= threshold):
                            service.quota_disconnects += 1
                            return
                        continue
                    msg = decode_message(payload)
                    if msg[0] == _T_BYE:
                        writer.write(frame_payload(encode_bye()))
                        await writer.drain()
                        return
                data = await reader.read(1 << 16)
                if not data:
                    break
                pending = decoder.feed(data)
        except CorruptRecord:
            # The one deliberate protocol-fault path: undecodable frame
            # stream OR malformed BATCH payload -- count it, drop them.
            service.protocol_errors += 1
        finally:
            service.close_conn(conn.conn_id)
            writer.close()

    async def stop(self) -> List[Dict[str, float]]:
        """Quiesce: flush + await outstanding handoffs, stop workers,
        close the listener.  Returns final per-worker metrics."""
        if self._pump_task is not None:
            self._pump_task.cancel()
        self._stop.set()
        if self._collector is not None:
            self._collector.join(timeout=2.0)
        # Drain remaining completions so every acked batch is accounted.
        metrics = await asyncio.get_running_loop().run_in_executor(
            None, self.service.drain_and_close)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Close connections the caller left open so their handler tasks
        # exit via EOF instead of being cancelled at loop teardown.
        for writer in list(self._conn_writers):
            writer.close()
        await asyncio.sleep(0)
        return metrics


async def serve(service: IngestService, host: str = "127.0.0.1",
                port: int = 0, flush_interval_s: float = 0.002
                ) -> IngestServer:
    """Start an :class:`IngestServer` for ``service``; returns it with
    ``.port`` resolved (port 0 picks a free one)."""
    server = IngestServer(service, host, port,
                          flush_interval_s=flush_interval_s)
    await server.start()
    return server


# ----------------------------------------------------------------------
# The vehicle-side client
# ----------------------------------------------------------------------

class VehicleClient:
    """Async vehicle uplink with credit-based flow control.

    ``send_events`` consumes one credit per batch; credits return with
    ACKs (each ACK's round trip is recorded -- the p99 E19 publishes).
    While the server holds this connection SUPPRESSED, ASIL-A telemetry
    is shed at the source and counted (``suppressed_at_source``),
    mirroring :class:`~repro.soc.fleet.FleetWorkloadGenerator`; higher
    severities still go through -- backpressure never mutes actionable
    security telemetry.
    """

    def __init__(self, client_id: str, host: str = "127.0.0.1",
                 port: int = 0,
                 session_key: Optional[bytes] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.client_id = client_id
        self.host = host
        self.port = port
        self.session_key = session_key
        self.clock = clock
        self.shard = -1
        self.credits = 0
        self.suppressed = False
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._decoder = FrameStreamDecoder()
        self._next_batch = 0
        self._pending: Dict[int, Tuple[float, int]] = {}
        self._credit_evt = asyncio.Event()
        self._ack_evt = asyncio.Event()
        self.batches_sent = 0
        self.events_sent = 0
        self.events_accepted = 0
        self.suppressed_at_source = 0
        self.batches_refused = 0
        self.events_refused_quota = 0
        self.rtts_s: List[float] = []
        self.closed = False

    def seal(self, payload: bytes) -> bytes:
        """Append this session's :func:`batch_tag` trailer to an encoded
        BATCH payload (no-op without a session key)."""
        if self.session_key is None:
            return payload
        return seal_payload(self.session_key, self.client_id, payload)

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        self._writer.write(frame_payload(encode_hello(self.client_id)))
        # The handshake (CHALLENGE? -> WELCOME) completes before any
        # ACK/SUPPRESS can arrive; read it synchronously.
        pending: List[bytes] = []
        while True:
            while pending:
                msg = decode_message(pending.pop(0))
                if msg[0] == _T_CHALLENGE:
                    if self.session_key is None:
                        raise CorruptRecord(
                            "server requires authentication but this "
                            "client has no session key")
                    tag = auth_tag(self.session_key, self.client_id,
                                   bytes.fromhex(msg[1]))
                    self._writer.write(frame_payload(encode_auth(tag)))
                    continue
                if msg[0] != _T_WELCOME:
                    raise CorruptRecord("expected WELCOME")
                self.shard, _, self.credits = msg[1], msg[2], msg[3]
                if self.credits > 0:
                    self._credit_evt.set()
                for extra in pending:
                    self._on_payload(extra)
                self._reader_task = asyncio.create_task(self._read_loop())
                return
            data = await self._reader.read(1 << 16)
            if not data:
                raise ConnectionError("server closed during handshake")
            pending = self._decoder.feed(data)

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self._reader.read(1 << 16)
                if not data:
                    break
                for payload in self._decoder.feed(data):
                    self._on_payload(payload)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            self.closed = True
            self._ack_evt.set()
            self._credit_evt.set()

    def _on_payload(self, payload: bytes) -> None:
        msg = decode_message(payload)
        if msg[0] == _T_ACK:
            _, batch_id, accepted, credits = msg
            sent = self._pending.pop(batch_id, None)
            if sent is not None:
                self.rtts_s.append(self.clock() - sent[0])
                self.events_accepted += accepted
            self.credits += credits
            if self.credits > 0:
                self._credit_evt.set()
            self._ack_evt.set()
        elif msg[0] == _T_REFUSED:
            # Quota hard-refusal: the batch was NOT admitted; reclaim
            # the credit and count the loss explicitly.
            _, batch_id, credits = msg
            sent = self._pending.pop(batch_id, None)
            if sent is not None:
                self.batches_refused += 1
                self.events_refused_quota += sent[1]
            self.credits += credits
            if self.credits > 0:
                self._credit_evt.set()
            self._ack_evt.set()
        elif msg[0] == _T_SUPPRESS:
            self.suppressed = True
        elif msg[0] == _T_RESUME:
            self.suppressed = False

    async def send_events(self, events: Sequence[SecurityEvent]
                          ) -> Optional[int]:
        """Send one batch (one credit).  Under suppression, ASIL-A
        events are shed and counted; returns the batch id, or ``None``
        if suppression shed the whole batch."""
        if self.suppressed:
            kept = [e for e in events if e.severity > Asil.A]
            self.suppressed_at_source += len(events) - len(kept)
            if not kept:
                return None
            events = kept
        while self.credits <= 0 and not self.closed:
            self._credit_evt.clear()
            await self._credit_evt.wait()
        if self.closed or self._writer.is_closing():
            raise ConnectionError("connection closed")
        self.credits -= 1
        batch_id = self._next_batch
        self._next_batch += 1
        self._pending[batch_id] = (self.clock(), len(events))
        self._writer.write(frame_payload(
            self.seal(encode_batch(batch_id, events))))
        self.batches_sent += 1
        self.events_sent += len(events)
        return batch_id

    async def send_payload(self, payload: bytes, n_events: int = 0) -> int:
        """Send a pre-encoded BATCH payload (the zero-copy path the
        benchmark uses: serialize once, send many).  The payload's batch
        id must be fresh for this connection, and in authenticated mode
        the caller pre-seals it (:meth:`seal` / :func:`seal_payload`);
        ``n_events`` feeds the client's sent-events counter (the payload
        is deliberately not re-parsed here)."""
        while self.credits <= 0 and not self.closed:
            self._credit_evt.clear()
            await self._credit_evt.wait()
        if self.closed or self._writer.is_closing():
            raise ConnectionError("connection closed")
        self.credits -= 1
        batch_id = batch_id_of(payload)
        self._pending[batch_id] = (self.clock(), n_events)
        self._writer.write(frame_payload(payload))
        self.batches_sent += 1
        self.events_sent += n_events
        return batch_id

    async def drain(self) -> None:
        """Wait until every sent batch has been ACKed."""
        while self._pending and not self.closed:
            self._ack_evt.clear()
            if self._pending:
                await self._ack_evt.wait()

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.write(frame_payload(encode_bye()))
                await self._writer.drain()
            except ConnectionError:  # pragma: no cover - already gone
                pass
            self._writer.close()
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:  # pragma: no cover
                pass
        self.closed = True
