"""Multiprocess network ingest service: asyncio frontend + shard workers.

The VSOC's network front door: an :mod:`asyncio` TCP server that
thousands of vehicle connections report into, feeding a pool of **shard
worker processes** so the GIL stops being the scaling wall.

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

:class:`ConnProtocol` is the only place a protocol decision is made:
handshake order, pre-auth limits, quota refusals, BYE and the counted
``protocol_errors`` drop.  In a session it accepts a payload starting
``["e"`` (a BATCH, routed undecoded) and the exact BYE bytes; anything
else drops the client.  :class:`IngestServer` runs one per connection.

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
- **Sharding is by client id** (CRC-32,
  :func:`~repro.soc.shard.stable_hash`): one vehicle, one worker, so
  per-vehicle dedup stays worker-local and a connection has exactly
  one backpressure authority.
- **Backpressure is explicit.**  The existing source-suppression signal
  (:attr:`~repro.soc.ingest.IngestPipeline.congested`) is sampled by the
  worker after admission and propagated -- together with the frontend's
  own outstanding-handoff watermark -- back to every connection on that
  shard as SUPPRESS/RESUME frames, the signal the in-simulation
  :class:`~repro.soc.fleet.FleetWorkloadGenerator` throttles ASIL-A
  telemetry on.
- **Credit-based flow control.**  WELCOME grants each connection
  ``credits`` in-flight batches; every ACK (sent only after the owning
  worker has *dispatched* the batch) returns one.  A client can never
  overrun the service faster than workers drain, and the ACK round-trip
  is the honest per-batch ingest-latency measurement E19 reports p99 of.

Every worker owns a full single-shard analytic stack with its own
:class:`~repro.soc.store.DurableStore`, driven through
:meth:`~repro.soc.center.SecurityOperationsCenter.service_pump`, so a
SIGKILLed worker's state is rebuilt byte-identically by
:func:`recover_worker` (snapshot + log-suffix replay).

``mode="inline"`` is the deterministic single-process fallback: the same
wire path, buffers and worker cores, with handoffs run synchronously in
the caller.  It is differential-tested byte-identical (analytics
snapshot *and* log bytes) to driving the in-process pipeline directly.

Behind :class:`IngestServer` one thread calls the service, the event
loop's, and only events wake it: a route, a worker's report or death,
a quota timer.  ``stop()`` stops intake before it drains, so every
routed batch is acked and its ACK written before the sessions close.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing as mp
import multiprocessing.connection
import os
import queue as queue_mod
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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
from repro.soc.ingest import IngestShard, TokenBucket
from repro.soc.shard import ConservationAudit, stable_hash
from repro.soc.store import (
    CorruptRecord,
    DurableStore,
    canonical_dumps,
    frame_payload,
    iter_frames,
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

#: Front-door limits no program varies (read where used; tests patch them).
MAX_FRAME_BYTES = 1 << 24   # a longer frame length is provable damage
HANDOFF_BATCH = 64          # buffered batches that make a shard's handoff
QUEUE_MAX_HANDOFFS = 16     # handoffs a worker's feed queue holds
SUPPRESS_AFTER = 8          # outstanding handoffs that SUPPRESS a shard
RESUME_BELOW = 2            # ... and below which it RESUMEs
HANDSHAKE_TIMEOUT_S = 5.0   # accept to WELCOME
MAX_PREAUTH_BYTES = 4096    # bytes a connection may send before WELCOME
MAX_HALF_OPEN = 1024        # connections in their handshake at once
DRAIN_POLL_S = 0.01         # drain_and_close's wait per polling round
DRAIN_TIMEOUT_S = 30.0      # ... and in all


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


def _auth_message(client_id: str, nonce: bytes) -> bytes:
    """The bytes a handshake proof covers (signed and verified alike)."""
    return AUTH_CONTEXT + b"|" + client_id.encode("utf-8") + b"|" + nonce


def _batch_message(client_id: str, batch_id: int, payload: bytes) -> bytes:
    """The bytes a batch tag covers (signed and verified alike)."""
    return client_id.encode("utf-8") + b"|%d|" % batch_id + payload


def auth_tag(session_key: bytes, client_id: str, nonce: bytes) -> bytes:
    """Handshake proof: CMAC over ``context|client_id|nonce``."""
    return aes_cmac(session_key, _auth_message(client_id, nonce))


def batch_tag(session_key: bytes, client_id: str, batch_id: int,
              payload: bytes) -> bytes:
    """Per-batch authentication tag: CMAC over
    ``client_id|batch_id|payload`` -- binds the batch to the session
    *and* to its flow-control slot, so a tag cannot be replayed onto
    another client's (or another batch id's) payload."""
    return aes_cmac(session_key, _batch_message(client_id, batch_id, payload))


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
            if not isinstance(obj[1], str):
                raise CorruptRecord(f"HELLO client id {obj[1]!r} is not a string")
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
    ``ValueError``, so :class:`ConnProtocol` counts it as a protocol
    error and drops the client."""
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
    provable (CRC mismatch, or a length beyond :data:`MAX_FRAME_BYTES`)
    raises :class:`~repro.soc.store.CorruptRecord`: on a TCP stream there
    is no resynchronization point after a bad header, so the connection
    must be dropped, mirroring how the log rejects a corrupt record
    before the tail.  The parsing is :func:`~repro.soc.store.iter_frames`,
    the one frame parser the log and the shipments use too.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        #: Bytes this decoder *accepted* (delivered or buffered toward a
        #: frame).  Data that provoked a CorruptRecord is not counted --
        #: an attacker's oversized-header probe must not inflate the
        #: accepted-byte accounting the pre-auth byte cap reads.
        self.bytes_fed = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> List[bytes]:
        self._buf += data
        out: List[bytes] = []
        used = 0
        for used, payload in iter_frames(self._buf, MAX_FRAME_BYTES):
            out.append(payload)
        self.bytes_fed += len(data)
        if used:
            del self._buf[:used]
        return out


# ----------------------------------------------------------------------
# Worker core: one shard's full analytic stack
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ServiceConfig:
    """Per-worker analytic configuration (picklable -- it crosses the
    ``multiprocessing`` boundary at worker spawn).

    The correlation window, quorum and dedup window are
    :class:`~repro.soc.center.SecurityOperationsCenter`'s defaults; the
    ingest queue is sized for a network front door (deep queue, generous
    batch) rather than a simulated capacity budget.  The worker's
    durable log keeps the store's one contract: each handoff's pump
    marker is the commit point and is flushed to the OS, never to the
    disk, so a worker *process* kill loses nothing acknowledged; records
    reach the disk only at segment close, before every snapshot and at
    close."""

    max_lateness_s: float = 2.0
    queue_capacity: int = 1 << 16
    batch_size: int = 256
    snapshot_every_pumps: int = 256
    #: Fleet key material for CMAC-authenticated sessions.  ``None``
    #: (default) keeps the plain protocol; set, the handshake
    #: becomes HELLO -> CHALLENGE -> AUTH -> WELCOME and every BATCH
    #: payload must carry a :func:`batch_tag` trailer the owning worker
    #: verifies (the per-vehicle session key is re-derived on both
    #: sides via :func:`derive_session_key` -- never distributed).
    fleet_key: Optional[bytes] = None


def worker_root(root, index: int) -> Path:
    """Durable-store root for shard worker ``index`` under the service
    root (one independent store per worker -- recovery is per worker)."""
    return Path(root) / f"worker-{index:02d}"


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
        self.index = index
        self.config = config = config or ServiceConfig()
        store = None
        recovered = None
        if root is not None:
            store = DurableStore(worker_root(root, index))
            if recover:
                # Auto-restart path: truncate the log back to the last
                # pump marker (the commit point), so ordinary recovery
                # lands exactly on that handoff boundary.  The frontend
                # resubmits everything past it, and re-processing those
                # handoffs re-archives the exact bytes the twin wrote.
                store.log.truncate_after_last_mark()
                try:
                    recovered = recover_soc_state(store)
                except RuntimeError:  # pragma: no cover - killed pre-snap-0
                    recovered = None  # nothing recoverable: start fresh
        elif recover:
            raise ValueError("recover=True requires a durable root")
        self.soc = SecurityOperationsCenter(
            Simulator(), FleetModel(0, []),
            queue_capacity=config.queue_capacity,
            batch_size=config.batch_size,
            max_lateness_s=config.max_lateness_s,
            respond=False, num_shards=1,
            store=store,
            snapshot_every_pumps=config.snapshot_every_pumps,
        )
        if recovered is not None:
            # Adopt *before* start_service(): the arming snapshot must
            # capture the recovered state, not clobber the latest good
            # snapshot with a fresh empty one.
            self.soc.adopt_analytics(recovered)
        self.soc.start_service()
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
        message = _batch_message(client_id, batch_id, body)
        return body if cmac_verify(key, message, tag) else None

    def _admit(self, t_send: float,
               items: Sequence[Tuple[int, str, int, bytes]],
               offer: Callable[[float, SecurityEvent], bool]
               ) -> List[Tuple[int, int, int, int]]:
        """The admit loop: verify each batch's CMAC trailer
        (authenticated mode), decode it and ``offer`` its events at
        ``t_send``; returns one ``(conn, batch id, offered, accepted)``
        ack per batch."""
        authenticated = self.config.fleet_key is not None
        acks: List[Tuple[int, int, int, int]] = []
        for conn, client_id, batch_id, payload in items:
            if authenticated:
                payload = self._open_sealed(client_id, batch_id, payload)
                if payload is None:
                    acks.append((conn, batch_id, 0, -2))
                    continue
            try:
                _, _, events = decode_message(payload)
            except CorruptRecord:
                acks.append((conn, batch_id, 0, -1))
                continue
            accepted = 0
            for event in events:
                accepted += offer(t_send, event)
            acks.append((conn, batch_id, len(events), accepted))
        return acks

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
        re-processed: re-running it would double-admit.  Its acks are
        recomputed instead, by the same admit loop on a throwaway queue
        of the configured capacity.  That reproduces the sealed run's
        acks exactly, because ``service_pump`` drains everything, so
        every handoff was admitted into an empty queue, and the
        frontend resubmits the handoff's ``t_send`` and items unchanged.
        This is what makes crash + resubmit exactly-once.

        A payload that fails to decode is refused whole (``accepted=-1``
        in the report -- the frontend closes that connection), never
        half-admitted; a tampered or missing CMAC trailer likewise
        refuses whole with ``accepted=-2`` (counted separately: a bad
        tag is an authentication event, not a framing accident).
        ``t_mono`` (the frontend's monotonic send stamp) feeds only the
        latency metrics -- never admission or marker times.
        """
        soc = self.soc
        pipeline = soc.pipeline
        if 0 <= seq <= soc.pump_no:
            self.replayed_handoffs += 1
            acks = self._admit(t_send, items,
                               IngestShard(self.config.queue_capacity).offer)
            return WorkerReport(self.index, tuple(acks), pipeline.congested,
                                seq)
        acks = self._admit(t_send, items, pipeline.offer)
        for _, _, offered, accepted in acks:
            if accepted == -1:
                self.decode_errors += 1
            elif accepted == -2:
                self.cmac_rejected += 1
            else:
                self.events_in += offered
        # Sample the existing source-suppression signal *after* admission
        # (the queue is at its handoff peak) -- this is the bit the
        # frontend propagates to clients as SUPPRESS/RESUME.
        congested = pipeline.congested
        self.events_dispatched += soc.service_pump(t_send)
        self.handoffs += 1
        if t_mono is not None:
            wait = max(0.0, time.monotonic() - t_mono)
            self.handoff_latency_sum_s += wait
            if wait > self.handoff_latency_max_s:
                self.handoff_latency_max_s = wait
        return WorkerReport(self.index, tuple(acks), congested, seq)

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
    congested: bool
    #: The frontend's per-shard handoff sequence number this report
    #: answers; the frontend's in-flight ledger pops it exactly once
    #: (a duplicate -- e.g. a pre-crash report racing the restarted
    #: worker's recomputed one -- is dropped, not double-accounted).
    handoff_seq: int


def recover_worker(root, index: int) -> RecoveredAnalytics:
    """Rebuild shard worker ``index``'s analytic state from its durable
    store -- the per-worker crash-recovery entry point (snapshot +
    log-suffix replay via :func:`~repro.soc.center.recover_soc_state`)."""
    store = DurableStore(worker_root(root, index))
    try:
        return recover_soc_state(store)
    finally:
        store.close()


# ----------------------------------------------------------------------
# Backends: inline (deterministic fallback) and multiprocess
# ----------------------------------------------------------------------

class _InlineBackend:
    """Single-process fallback: handoffs run synchronously in the
    caller.  Deterministic -- same cores, same wire path, no queues --
    which is what keeps the byte-identity differential tests meaningful.
    """

    def __init__(self, num_workers: int, root, config: ServiceConfig) -> None:
        self.root = root
        self.config = config
        self.cores = [WorkerCore(i, root, config) for i in range(num_workers)]
        self._reports: List[WorkerReport] = []
        self._watch: Optional[Tuple] = None

    def watch(self, loop, on_report: Callable[[], object],
              on_death: Callable[[], object]) -> None:
        """Each submit schedules ``on_report`` on ``loop``, and each kill
        ``on_death`` (one still pending at :meth:`unwatch` is a no-op)."""
        self._watch = (loop, on_report, on_death)

    def unwatch(self) -> None:
        self._watch = None

    def submit(self, shard: int, seq: int, t_send: float,
               t_mono: Optional[float],
               items: Sequence[Tuple[int, str, int, bytes]]) -> bool:
        core = self.cores[shard]
        if core is None:
            # Dead worker: the failed submit *is* the exit sentinel the
            # supervisor keys off in this backend.
            return False
        self._reports.append(core.ingest_handoff(t_send, items, seq=seq))
        if self._watch is not None:
            self._watch[0].call_soon(self._watch[1])
        return True

    def get_report(self, timeout: float = 0.0) -> Optional[WorkerReport]:
        return self._reports.pop(0) if self._reports else None

    def kill(self, shard: int) -> None:
        """Simulate a worker crash: drop the core on the floor without
        snapshot or close (its durable store is the only survivor)."""
        self.cores[shard] = None
        if self._watch is not None:
            self._watch[0].call_soon(self._watch[2])

    def dead_workers(self) -> List[int]:
        return [i for i, core in enumerate(self.cores) if core is None]

    def restart(self, shard: int, min_capacity: int = 0) -> None:
        """Rebuild a killed core from its durable store (deterministic
        inline twin of the process backend's respawn)."""
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
    original timestamps, and the recovered worker recomputes the acks
    of each handoff it had already sealed.  Completion queues are per worker because a SIGKILL
    can land while the worker's feeder thread holds the queue's write
    lock; on a shared queue that lock is never released, and every
    other worker's reports stall behind it for good."""

    def __init__(self, num_workers: int, root, config: ServiceConfig) -> None:
        self.root = root
        self.config = config
        ctx = mp.get_context()
        self.in_qs = [ctx.Queue(maxsize=QUEUE_MAX_HANDOFFS)
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
        self._watch: Optional[Tuple] = None
        self._next_shard = 0
        self._final: Dict[int, Dict[str, float]] = {}

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

    def watch(self, loop, on_report: Callable[[], object],
              on_death: Callable[[], object]) -> None:
        """Run ``on_report`` on ``loop`` whenever a completion pipe is
        readable, and ``on_death`` when a worker's ``Process.sentinel``
        is (the readers move at :meth:`restart`, go at :meth:`unwatch`)."""
        self._watch = (loop, on_report, on_death)
        for q, proc in zip(self.out_qs, self.procs):
            loop.add_reader(q._reader.fileno(), on_report)
            loop.add_reader(proc.sentinel, self._died, loop, proc, on_death)

    @staticmethod
    def _died(loop, proc, on_death: Callable[[], object]) -> None:
        # A dead worker's sentinel stays readable (for good, when nothing
        # restarts it): one notice per death.
        loop.remove_reader(proc.sentinel)
        on_death()

    def unwatch(self) -> None:
        if self._watch is not None:
            for q, proc in zip(self.out_qs, self.procs):
                self._watch[0].remove_reader(q._reader.fileno())
                self._watch[0].remove_reader(proc.sentinel)
            self._watch = None

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
        watch = self._watch
        # Off the old pipe and sentinel before they close and their fds
        # are reused.
        self.unwatch()
        old_q = self.in_qs[shard]
        old_q.close()
        old_q.cancel_join_thread()
        self.out_qs[shard].close()
        ctx = mp.get_context()
        self.in_qs[shard] = ctx.Queue(
            maxsize=max(QUEUE_MAX_HANDOFFS, min_capacity))
        self.out_qs[shard] = ctx.Queue()
        self.procs[shard] = ctx.Process(
            target=_worker_main,
            args=(shard, self.root, self.config, self.in_qs[shard],
                  self.out_qs[shard], True),
            daemon=True)
        self.procs[shard].start()
        if watch is not None:
            self.watch(*watch)

    def close(self) -> List[Dict[str, float]]:
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
        return [self._final.get(i, {}) for i in range(len(self.procs))]


def shard_for_client(client_id: str, num_workers: int) -> int:
    """Connection-level shard key: CRC-32 of the client id (process-
    stable, like :func:`~repro.soc.shard.signature_shard_key`)."""
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
    writer: Optional[asyncio.Transport]
    suppressed: bool = False
    batches: int = 0
    bucket: Optional[TokenBucket] = None
    quota_suppressed: bool = False
    quota_refused: int = 0
    lift: Optional[asyncio.TimerHandle] = None  # armed while quota_suppressed


class IngestService:
    """The ingest tier behind the TCP server: shard buffers, worker
    backend, flow accounting, and the SUPPRESS/RESUME state machine.

    One :class:`ConnProtocol` per connection drives it.  Once
    :class:`IngestServer` hands it the loop (:meth:`attach`), each
    handoff (:meth:`group_commit`), report (:meth:`poll_completions`),
    restart (:meth:`check_workers`) and quota lift (:meth:`lift_quota`)
    runs from one event on that loop.  Without a loop, explicit calls
    drive it (tests, the drain), and a route never submits by itself.

    :data:`SUPPRESS_AFTER` / :data:`RESUME_BELOW` bound the
    *outstanding handoffs* per shard -- the frontend's own watermark on
    top of the worker-sampled queue-congestion signal; crossing either
    raises SUPPRESS to every connection on the shard.

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
      in-flight ledger in sequence order.  The worker re-runs only
      the handoffs its log had not sealed and recomputes the acks of
      the rest, so the replay is exactly-once and clients never lose
      an ACK for an admitted batch.
    """

    def __init__(self, num_workers: int = 1, *, mode: str = "process",
                 root=None, config: Optional[ServiceConfig] = None,
                 initial_credits: int = 8,
                 quota_bytes_per_s: Optional[float] = None,
                 quota_burst_bytes: Optional[float] = None,
                 quota_disconnect_after: Optional[int] = None,
                 clock: Callable[[], float] = time.time,
                 mono_clock: Callable[[], float] = time.monotonic) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if mode not in ("process", "inline"):
            raise ValueError("mode must be 'process' or 'inline'")
        self.num_workers = num_workers
        self.config = config or ServiceConfig()
        self.initial_credits = initial_credits
        self.quota_bytes_per_s = quota_bytes_per_s
        self.quota_burst_bytes = (
            quota_burst_bytes if quota_burst_bytes is not None
            else (4.0 * quota_bytes_per_s
                  if quota_bytes_per_s is not None else None))
        self.quota_disconnect_after = quota_disconnect_after
        # ``clock`` stays wall-clock: workers compare *event* timestamps
        # against t_send for lateness admission.  Deadlines, ACK latency
        # and quota buckets use ``mono_clock`` so a wall-clock step never
        # stalls a drain or starves a client.
        self.clock = clock
        self.mono_clock = mono_clock
        self.backend = (
            _InlineBackend(num_workers, root, self.config)
            if mode == "inline" else
            _ProcessBackend(num_workers, root, self.config))
        self._buffers: List[List[Tuple[int, str, int, bytes]]] = [
            [] for _ in range(num_workers)]
        # In-flight ledger: per shard, seq -> (t_send, t_mono, items) for
        # every submitted-but-unreported handoff.  It is the only handoff
        # state: its length is the shard's outstanding-handoff count, and
        # the supervisor replays it (original timestamps, sequence order)
        # after a restart; a report pops its entry, and a report whose
        # entry is already gone is a duplicate of replayed work and is
        # dropped whole.
        self._inflight: List[Dict[int, Tuple[float, Optional[float],
                                             List[Tuple[int, str, int,
                                                        bytes]]]]] = [
            {} for _ in range(num_workers)]
        # Handoff sequence numbers are 1-based so seq N == the worker's
        # pump_no after applying it -- the invariant replay dedup rides.
        self._next_seq = [1] * num_workers
        self._congested = [False] * num_workers
        self._suppressed = [False] * num_workers
        self.conns: Dict[int, _Conn] = {}
        self._shard_conns: List[Dict[int, _Conn]] = [
            {} for _ in range(num_workers)]
        self._next_conn = 0
        # Flow totals (frontend truth; per-worker truth comes from the
        # workers' final metrics -- the service conservation test ties
        # them).
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
        self.worker_restarts = 0
        self.duplicate_reports = 0
        self.handoffs_resubmitted = 0
        self.auth_failures = 0
        self.handshake_timeouts = 0
        self.preauth_overflows = 0
        #: Connections still in their handshake (half-open slots).
        self.handshakes: Set["ConnProtocol"] = set()
        self.half_open_rejected = 0
        self.protocol_errors = 0
        self.closed = False
        self._final_metrics: Optional[List[Dict[str, float]]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._flush_due: Optional[asyncio.Handle] = None

    def attach(self, loop: asyncio.AbstractEventLoop) -> None:
        """Run every trigger on ``loop`` (see the class docstring)."""
        self._loop = loop
        self.backend.watch(loop, self.poll_completions, self.check_workers)

    # -- connection lifecycle ------------------------------------------
    def open_conn(self, client_id: str,
                  writer: Optional[asyncio.Transport] = None) -> _Conn:
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
            if conn.lift is not None:
                conn.lift.cancel()

    # -- ingest path ----------------------------------------------------
    def route(self, conn: _Conn, payload: bytes) -> bool:
        """Buffer one raw BATCH payload for the connection's shard; the
        batch id is scanned out, the events are not decoded here.

        Returns ``False`` when the connection's token bucket refuses the
        batch (over quota): the payload is *not* buffered, the refusal
        is counted, and the connection is put under targeted SUPPRESS
        until :meth:`lift_quota` finds its bucket half-full again.
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
                self._arm_lift(conn)
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
                self.handoffs_submitted += 1
                submitted += 1
            else:
                self.submit_refusals += 1
            self._update_suppression(index)
        return submitted

    def group_commit(self, shard: int) -> None:
        """After a route: a buffer of :data:`HANDOFF_BATCH` batches goes
        to its worker now, any other as :meth:`_flush_if_idle` says."""
        if len(self._buffers[shard]) >= HANDOFF_BATCH:
            self.flush(shard)
        else:
            self._flush_if_idle(shard)

    def _flush_if_idle(self, shard: int) -> None:
        """With a loop attached, an idle worker's buffer goes in this
        turn's one coalesced :meth:`flush_idle`; a busy worker's waits
        for the report that frees it (which calls this, as a restart
        does)."""
        if (self._loop is not None and self._flush_due is None
                and self._buffers[shard] and not self._inflight[shard]):
            self._flush_due = self._loop.call_soon(self.flush_idle)

    def flush_idle(self) -> int:
        """The turn's one flush: every buffer whose worker is idle."""
        self._flush_due = None
        return sum(self.flush(shard) for shard in range(self.num_workers)
                   if self._buffers[shard] and not self._inflight[shard])

    def apply_report(self, report: WorkerReport
                     ) -> List[Tuple[_Conn, int, int, int]]:
        """Account one finished handoff and, after any SUPPRESS/RESUME,
        write each live connection's ACK frames -- or drop it where
        ``accepted < 0`` flags an undecodable (``-1``) or tampered
        (``-2``) payload.  Returns the per-batch items ``(conn,
        batch_id, offered, accepted)`` for live connections.

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
        for conn, batch_id, _, accepted in out:
            writer = conn.writer
            if writer is None or writer.is_closing():
                continue
            if accepted < 0:
                writer.close()
                self.close_conn(conn.conn_id)
            else:
                writer.write(frame_payload(encode_ack(batch_id, accepted, 1)))
        self._flush_if_idle(report.shard)
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
        outstanding = len(self._inflight[shard])
        if self._suppressed[shard]:
            want = (outstanding >= RESUME_BELOW
                    or len(self._buffers[shard]) >= HANDOFF_BATCH
                    or self._congested[shard])
        else:
            want = (outstanding >= SUPPRESS_AFTER
                    or len(self._buffers[shard])
                    >= HANDOFF_BATCH * SUPPRESS_AFTER
                    or self._congested[shard])
        if want != self._suppressed[shard]:
            self._suppressed[shard] = want
            self.suppress_transitions += 1
            for conn in self._shard_conns[shard].values():
                self._sync_conn_suppression(conn)

    def _arm_lift(self, conn: _Conn) -> None:
        """With a loop, time ``lift_quota`` for a half-full bucket."""
        if self._loop is not None:
            bucket = conn.bucket
            wait = (bucket.burst / 2.0
                    - bucket.level(self.mono_clock())) / bucket.rate
            conn.lift = self._loop.call_later(max(0.0, wait),
                                              self.lift_quota, conn)

    def lift_quota(self, conn: _Conn) -> None:
        """Quota timer: lift the connection's targeted SUPPRESS once its
        bucket has refilled to half its burst (hysteresis: resuming at
        the refusal threshold would flap on every refill), or re-arm the
        timer if a take since the refusal left it short."""
        conn.lift = None
        if conn.bucket.level(self.mono_clock()) < conn.bucket.burst / 2.0:
            self._arm_lift(conn)
        else:
            conn.quota_suppressed = False
            self._sync_conn_suppression(conn)

    def suppressed(self, shard: int) -> bool:
        return self._suppressed[shard]

    # -- worker failure: kill, then supervised restart ------------------
    def sigkill_worker(self, shard: int) -> None:
        """Crash one shard worker (SIGKILL in process mode, dropped core
        inline).  Its work is never forgotten: the in-flight ledger and
        shard buffer survive, so :meth:`check_workers` can restart the
        worker and replay every unacked handoff exactly once."""
        self.backend.kill(shard)

    def check_workers(self) -> int:
        """Supervisor tick: detect dead workers (exit sentinel), respawn
        each in recover mode (log truncated to its last pump marker, then
        snapshot + log-suffix replay of its durable store), and resubmit
        its unacked handoffs from the in-flight ledger in sequence order
        with their *original* timestamps -- replay must be deterministic,
        not re-stamped.  Supervision is on exactly when the service has a
        durable root to recover from; without one this returns 0.
        Returns the number of workers restarted."""
        if self.backend.root is None or self.closed:
            return 0
        restarted = 0
        for shard in self.backend.dead_workers():
            pending = sorted(self._inflight[shard].items())
            self.backend.restart(shard, min_capacity=len(pending) + 1)
            self.worker_restarts += 1
            restarted += 1
            self._congested[shard] = False
            for seq, (t_send, t_mono, items) in pending:
                if self.backend.submit(shard, seq, t_send, t_mono, items):
                    self.handoffs_resubmitted += 1
                else:  # pragma: no cover - queue sized for all pending
                    self.submit_refusals += 1
            self._update_suppression(shard)
            self._flush_if_idle(shard)
        return restarted

    # -- shutdown / observability --------------------------------------
    def drain_and_close(self) -> List[Dict[str, float]]:
        """Flush every buffer, wait for all outstanding handoffs (each
        report writes its ACKs), then stop the workers; returns their
        final metrics dicts.  The :data:`DRAIN_TIMEOUT_S`
        deadline is monotonic -- a wall-clock step (NTP slew, operator
        `date`) must never cut a drain short or hang it."""
        if self.closed:
            return self._final_metrics or []
        # Back to explicit calls: drop the turn's pending flush and stop
        # watching the workers (closing a session cancels its quota timer).
        if self._flush_due is not None:
            self._flush_due.cancel()
        self.backend.unwatch()
        self._loop = self._flush_due = None
        deadline = self.mono_clock() + DRAIN_TIMEOUT_S
        while self.buffered() or any(self._inflight):
            self.check_workers()
            self.flush()
            self.poll_completions(timeout=DRAIN_POLL_S)
            if self.mono_clock() > deadline:  # pragma: no cover - backstop
                break
        self._final_metrics = self.backend.close()
        self.closed = True
        return self._final_metrics

    def audit_conservation(self) -> None:
        """Assert the service batch-flow identity (raises
        :class:`~repro.soc.shard.ConservationError` on violation)."""
        ConservationAudit().check_service(self)

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
            "outstanding": float(sum(len(x) for x in self._inflight)),
            "inflight_batches": float(self.inflight_batches()),
            "connections": float(len(self.conns)),
            "quota_refused": float(self.quota_refused),
            "quota_refused_bytes": float(self.quota_refused_bytes),
            "quota_disconnects": float(self.quota_disconnects),
            "batches_cmac_rejected": float(self.batches_cmac_rejected),
            "worker_restarts": float(self.worker_restarts),
            "duplicate_reports": float(self.duplicate_reports),
            "handoffs_resubmitted": float(self.handoffs_resubmitted),
            "auth_failures": float(self.auth_failures),
            "handshake_timeouts": float(self.handshake_timeouts),
            "preauth_overflows": float(self.preauth_overflows),
            "half_open_rejected": float(self.half_open_rejected),
            "protocol_errors": float(self.protocol_errors),
        }


#: The session accept rule: a BATCH payload starts with these bytes,
#: and a BYE payload is exactly these.
_BATCH_PREFIX = b'["e"'
_BYE = encode_bye()


class ConnProtocol(asyncio.Protocol):
    """One client connection's protocol state machine: the only place
    the front door makes a protocol decision, and none waits on I/O.
    Bytes come in through :meth:`data_received`, clock readings through
    the service's ``mono_clock``; frames go out to the transport, and
    ``open_conn``/``route``/``group_commit``/``close_conn`` calls to the
    service.  Tests drive it with a fake transport and no loop.

    States: ``hello`` -> (``auth``, after a CHALLENGE) -> ``session``
    -> ``closed``.  Before ``session`` it holds one of ``MAX_HALF_OPEN``
    half-open slots, at most ``MAX_PREAUTH_BYTES`` are accepted, and
    WELCOME must come within ``HANDSHAKE_TIMEOUT_S``.  In ``session`` a
    payload starting ``["e"`` is a BATCH, routed undecoded; the exact
    BYE bytes are answered and closed; anything else is a protocol
    fault.  Each refusal moves one counter: ``half_open_rejected``,
    ``preauth_overflows``, ``handshake_timeouts``, ``auth_failures``,
    ``quota_refused`` (and ``quota_disconnects``), or
    ``protocol_errors`` for any :class:`~repro.soc.store.CorruptRecord`.
    EOF, a peer reset and its own close all end in
    :meth:`connection_lost`.
    """

    def __init__(self, service: IngestService) -> None:
        self.service = service
        self.decoder = FrameStreamDecoder()
        self.transport: Optional[asyncio.Transport] = None
        self.state = "hello"
        self.conn: Optional[_Conn] = None
        self.client_id = ""
        self.nonce = b""
        self.deadline = service.mono_clock() + HANDSHAKE_TIMEOUT_S
        #: The server's deadline timer, cancelled when the handshake ends
        #: so that it does not keep this protocol and the service alive.
        self.timer: Optional[asyncio.TimerHandle] = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        service = self.service
        full = len(service.handshakes) >= MAX_HALF_OPEN
        if full or service.closed:
            # Refuse at accept: too many connections parked pre-auth
            # (counted), or one accepted as the server stopped.
            service.half_open_rejected += full
            self.close()
            return
        service.handshakes.add(self)

    def data_received(self, data: bytes) -> None:
        if self.state == "closed" or self.tick():
            return
        service = self.service
        try:
            payloads = self.decoder.feed(data)
            if (self.state != "session"
                    and self.decoder.bytes_fed > MAX_PREAUTH_BYTES):
                service.preauth_overflows += 1
                self.close()
                return
            for payload in payloads:
                if self.state == "session":
                    self._session(payload)
                else:
                    self._handshake(payload)
                if self.state == "closed":
                    return
        except CorruptRecord:
            # The one counted protocol-fault path: a bad frame, an
            # undecodable or out-of-order handshake message, a malformed
            # BATCH, or a session payload the accept rule refuses.
            service.protocol_errors += 1
            self.close()

    def tick(self) -> bool:
        """Clock reading in: a handshake still open at its deadline is
        reaped and counted.  Returns whether this call reaped it."""
        if (self.state in ("hello", "auth")
                and self.service.mono_clock() >= self.deadline):
            self.service.handshake_timeouts += 1
            self.close()
            return True
        return False

    def _handshake(self, payload: bytes) -> None:
        msg = decode_message(payload)
        fleet_key = self.service.config.fleet_key
        if msg[0] == _T_HELLO and self.state == "hello":
            self.client_id = msg[1]
            if fleet_key is None:
                self._welcome()
                return
            self.nonce = os.urandom(16)
            self.state = "auth"
            self.transport.write(frame_payload(encode_challenge(self.nonce)))
        elif msg[0] == _T_AUTH and self.state == "auth":
            try:
                tag = bytes.fromhex(msg[1])
            except ValueError:
                tag = b""
            key = derive_session_key(fleet_key, self.client_id)
            if len(tag) == BATCH_TAG_LEN and cmac_verify(
                    key, _auth_message(self.client_id, self.nonce), tag):
                self._welcome()
            else:
                self.service.auth_failures += 1
                self.close()
        else:
            # BATCH before HELLO, a second HELLO, AUTH without a
            # challenge.
            raise CorruptRecord(f"{msg[0]!r} out of handshake order")

    def _welcome(self) -> None:
        """Open the session: WELCOME with the credit grant, then SUPPRESS
        if the connection starts out suppressed."""
        service = self.service
        self._end_handshake()
        self.state = "session"
        self.conn = conn = service.open_conn(self.client_id, self.transport)
        self.transport.write(frame_payload(encode_welcome(
            conn.shard, service.num_workers, service.initial_credits)))
        if conn.suppressed:
            self.transport.write(frame_payload(encode_suppress()))

    def _session(self, payload: bytes) -> None:
        service, conn = self.service, self.conn
        if payload[:4] == _BATCH_PREFIX:
            if service.route(conn, payload):
                service.group_commit(conn.shard)
                return
            # Over quota: hard-refuse, and return the credit so the
            # client's ledger stays live.
            self.transport.write(frame_payload(
                encode_refused(batch_id_of(payload), 1)))
            limit = service.quota_disconnect_after
            if limit is not None and conn.quota_refused >= limit:
                service.quota_disconnects += 1
                self.close()
        elif payload == _BYE:
            # Closing the transport still sends what was written to it.
            self.transport.write(frame_payload(_BYE))
            self.close()
        else:
            raise CorruptRecord("session payload is neither BATCH nor BYE")

    def _end_handshake(self) -> None:
        """Release the half-open slot and cancel the deadline timer."""
        self.service.handshakes.discard(self)
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def close(self) -> None:
        """Release the half-open slot or the session, then close the
        transport."""
        if self.state == "session":
            self.service.close_conn(self.conn.conn_id)
        else:
            self._end_handshake()
        self.state = "closed"
        self.transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self.state != "closed":
            self.close()


class IngestServer:
    """The asyncio TCP frontend over an :class:`IngestService`, and the
    one thread that calls it: the event loop.

    One :class:`ConnProtocol` per connection, each with a handshake
    timer.  :meth:`start` attaches the loop to the service, which then
    runs each handoff, report, restart and quota lift from its one
    event-driven trigger (:class:`IngestService`); an idle server has
    nothing scheduled but handshake timers.  Applying a report
    (:meth:`IngestService.apply_report`) writes its ACK, SUPPRESS and
    RESUME frames.
    """

    def __init__(self, service: IngestService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        service = self.service

        def accept() -> ConnProtocol:
            protocol = ConnProtocol(service)
            protocol.timer = loop.call_later(HANDSHAKE_TIMEOUT_S,
                                             protocol.tick)
            return protocol

        self._server = await loop.create_server(accept, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        service.attach(loop)

    async def stop(self) -> List[Dict[str, float]]:
        """Quiesce, in this order: close the listener; stop intake
        (sessions stop being read, and each unfinished handshake is
        closed without counting a timeout); drain on the loop, which
        detaches the service from it, acks every routed batch and writes
        each ACK, then stops the workers; close the sessions (each close
        cancels its quota timer).  Returns final per-worker metrics."""
        service = self.service
        self._server.close()
        sessions = [conn.writer for conn in service.conns.values()
                    if conn.writer is not None]
        for transport in sessions:
            transport.pause_reading()
        for protocol in list(service.handshakes):
            protocol.close()
        metrics = service.drain_and_close()
        for transport in sessions:
            transport.close()
        await self._server.wait_closed()
        await asyncio.sleep(0)
        return metrics


async def serve(service: IngestService, host: str = "127.0.0.1",
                port: int = 0) -> IngestServer:
    """Start an :class:`IngestServer` for ``service``; returns it with
    ``.port`` resolved (port 0 picks a free one)."""
    server = IngestServer(service, host, port)
    await server.start()
    return server


# ----------------------------------------------------------------------
# The vehicle-side client
# ----------------------------------------------------------------------

class VehicleClient:
    """Async vehicle uplink with credit-based flow control.

    :meth:`send_payload` consumes one credit per batch; credits return
    with ACKs (each ACK's round trip is recorded -- the p99 E19
    publishes).  ``suppressed`` follows the server's SUPPRESS/RESUME
    frames for this connection.
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
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._decoder = FrameStreamDecoder()
        self._pending: Dict[int, Tuple[float, int]] = {}
        self._welcomed = asyncio.Event()
        self._credit_evt = asyncio.Event()
        self._ack_evt = asyncio.Event()
        self.batches_sent = 0
        self.events_sent = 0
        self.events_accepted = 0
        self.batches_refused = 0
        self.rtts_s: List[float] = []
        self.closed = False

    async def connect(self) -> None:
        reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        self._writer.write(frame_payload(encode_hello(self.client_id)))
        self._reader_task = asyncio.create_task(self._read_loop(reader))
        await self._welcomed.wait()
        if self.shard < 0:
            # The read loop ended before WELCOME: hang up, and re-raise
            # what ended it (e.g. a CHALLENGE a keyless client can't answer).
            self._writer.close()
            await self._reader_task
            raise ConnectionError("server closed during handshake")

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    break
                for payload in self._decoder.feed(data):
                    self._on_payload(payload)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            self.closed = True
            self._welcomed.set()
            self._ack_evt.set()
            self._credit_evt.set()

    def _on_payload(self, payload: bytes) -> None:
        msg = decode_message(payload)
        if msg[0] == _T_ACK:
            sent = self._settle(msg[1], msg[3])
            if sent is not None:
                self.rtts_s.append(self.clock() - sent[0])
                self.events_accepted += msg[2]
        elif msg[0] == _T_REFUSED:
            # Quota hard-refusal: the batch was NOT admitted; count the
            # loss explicitly.
            sent = self._settle(msg[1], msg[2])
            if sent is not None:
                self.batches_refused += 1
        elif msg[0] == _T_SUPPRESS:
            self.suppressed = True
        elif msg[0] == _T_RESUME:
            self.suppressed = False
        elif msg[0] == _T_CHALLENGE:
            if self.session_key is None:
                raise CorruptRecord("server requires authentication but "
                                    "this client has no session key")
            self._writer.write(frame_payload(encode_auth(auth_tag(
                self.session_key, self.client_id, bytes.fromhex(msg[1])))))
        elif msg[0] == _T_WELCOME:
            self.shard = msg[1]
            self._settle(None, msg[3])
            self._welcomed.set()

    def _settle(self, batch_id: Optional[int], credits: int
                ) -> Optional[Tuple[float, int]]:
        """Take ``credits`` flow-control credits back (WELCOME, ACK and
        REFUSED alike); pops and returns ``batch_id``'s send record."""
        self.credits += credits
        if self.credits > 0:
            self._credit_evt.set()
        self._ack_evt.set()
        return self._pending.pop(batch_id, None)

    async def send_payload(self, payload: bytes, n_events: int = 0) -> int:
        """Send a pre-encoded BATCH payload (the zero-copy path the
        benchmark uses: serialize once, send many).  The payload's batch
        id must be fresh for this connection, and in authenticated mode
        the caller pre-seals it (:func:`seal_payload`);
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
