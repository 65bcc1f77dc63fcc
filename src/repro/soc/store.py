"""Durable VSOC storage: a segmented append-only event log + snapshots.

The paper's extensibility argument (§5) is that fleet security
infrastructure outlives any one process: a SOC backend that loses its
correlator state and incident history on restart cannot honor a 15+ year
vehicle life.  This module is the persistence substrate ROADMAP names as
the step after the 10^7-vehicle scale-out:

- :class:`EventLog` -- a segmented append-only on-disk log of every
  *dispatched* event (the archival tap rides the same batch sinks the
  correlators consume, so the log records exactly what the analytics
  saw, in the order they saw it) plus per-pump **markers** that let a
  replay reproduce the live pump/merge cadence exactly;
- :class:`SnapshotStore` -- CRC-guarded, atomically-written JSON
  snapshots of the analytic state (correlator windows + ledgers,
  merger, incident tracker) with bounded retention;
- :class:`DurableStore` -- the two side by side under one root.

Recovery contract (differential-tested byte-identical in
``tests/test_soc_store.py``): load the latest valid snapshot, replay the
log suffix after the snapshot's ``log_seq`` through ``observe_batch``,
re-running the campaign merge at every pump marker.  The recovered
correlator/merger/tracker state equals an uninterrupted run's state at
the kill point, at 1 and N shards.

On-disk record format (one segment file = ``SOCLOG1\\n`` magic + records)::

    ┌──────────┬──────────────┬───────────────────┐
    │ u32 len  │ u32 CRC32    │ payload (len bytes)│   little-endian
    └──────────┴──────────────┴───────────────────┘

The payload is canonical JSON: ``["b", dispatch_t, shard, [event, ...]]``
(each event its :class:`~repro.soc.events.SecurityEvent` tuple as a
JSON array) for one archived *dispatched batch* (one record per
batch-sink call, so replay sees exactly the batch boundaries the live
correlators saw -- incident attribution is batch-boundary-sensitive),
and ``["m", pump_t, pump_no]`` for a pump marker.  A
**torn write** (process killed mid-append) leaves a short or
CRC-mismatching tail; opening the log truncates the tail segment back to
its last whole record -- earlier records are never touched, and a CRC
failure *before* the tail raises :class:`CorruptRecord` instead of
guessing.

Forensics: :meth:`EventLog.scan` answers
``scan(signature=, vehicle_id=, t0=, t1=)`` without replaying the whole
log.  Closed segments carry a sidecar **sparse time index**: the
event-time min/max (whole-segment skip) plus every ``index_every``-th
record's ``(offset, index, watermark)`` checkpoint, where ``watermark``
is the running max event time.  Records before a checkpoint all have
``time <= watermark``, so the scan seeks to the last checkpoint with
``watermark < t0``; with a declared disorder bound (the correlator's
``max_lateness_s``), it also stops early once the watermark passes
``t1 + max_disorder_s``.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.soc.events import CorruptRecord, SecurityEvent, event_from_obj

#: First bytes of every segment file (and of the service's journal).
SEGMENT_MAGIC = b"SOCLOG1\n"
#: Record header: payload length, CRC32 of the payload (little-endian).
FRAME_HEADER = struct.Struct("<II")

#: When to fsync the active segment: ``never`` (OS buffering only),
#: ``rotate`` (at segment close and explicit :meth:`EventLog.sync` --
#: the default; a snapshot always syncs first), ``always`` (after every
#: append call -- the paranoid setting the fsync microbench prices).
FSYNC_POLICIES = ("never", "rotate", "always")


# ----------------------------------------------------------------------
# Codec: canonical JSON, byte-identical round trip
# ----------------------------------------------------------------------

def canonical_dumps(obj) -> bytes:
    """The one encoding of wire messages, log records and shipments (an
    event encodes as-is).  Compact separators + repr-based floats: Python
    floats round-trip exactly through json, so re-encoding a decoded
    event reproduces the original bytes.  NaN and infinities are
    rejected (they would break the sparse index's watermark order)."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False).encode("utf-8")


def encode_event(event: SecurityEvent) -> bytes:
    """Canonical wire form of one event.  ``detail`` values must be JSON
    scalars (everything the adapters in :mod:`repro.soc.events` emit)."""
    return canonical_dumps(event)


def decode_event(data: bytes) -> SecurityEvent:
    """Inverse of :func:`encode_event`, validating (hypothesis-tested
    byte-identical: ``encode(decode(b)) == b`` and
    ``decode(encode(e)) == e``)."""
    return event_from_obj(json.loads(data.decode("utf-8")))


@dataclass(frozen=True)
class LogRecord:
    """One replayed log entry: an archived batch or a pump marker."""

    seq: int                 # global 1-based record sequence number
    kind: str                # "batch" | "mark"
    dispatch_t: float        # sim time of the dispatching pump
    shard: int = 0           # ingest shard the batch drained from
    events: Tuple[SecurityEvent, ...] = ()
    pump_no: int = -1        # markers: the pump's ordinal


@dataclass(frozen=True)
class ScanHit:
    """One event matched by a forensics :meth:`EventLog.scan`."""

    seq: int                 # sequence number of the containing batch
    dispatch_t: float
    shard: int
    event: SecurityEvent


def record_from_payload(seq: int, payload: bytes) -> LogRecord:
    """Inverse of :func:`record_payload`; raises :class:`CorruptRecord`
    on an unknown tag or a schema-violating event."""
    obj = json.loads(payload.decode("utf-8"))
    if obj[0] == "b":
        return LogRecord(seq=seq, kind="batch", dispatch_t=float(obj[1]),
                         shard=int(obj[2]),
                         events=tuple(map(event_from_obj, obj[3])))
    if obj[0] == "m":
        return LogRecord(seq=seq, kind="mark", dispatch_t=float(obj[1]),
                         pump_no=int(obj[2]))
    raise CorruptRecord(f"unknown record tag {obj[0]!r} at seq {seq}")


def record_payload(record: LogRecord) -> bytes:
    """Canonical wire payload of one :class:`LogRecord` (the inverse of
    :func:`record_from_payload`): re-encoding a decoded record
    reproduces the on-disk payload bytes exactly, so a shipped record is
    byte-identical to the one the region archived."""
    if record.kind == "batch":
        return canonical_dumps(["b", record.dispatch_t, record.shard,
                                record.events])
    if record.kind == "mark":
        return canonical_dumps(["m", record.dispatch_t, record.pump_no])
    raise ValueError(f"unknown record kind {record.kind!r}")


def frame_payload(payload: bytes) -> bytes:
    """Frame one payload with the log's record codec (``u32 len | u32
    CRC32 | payload``) -- the same self-verifying envelope segments use
    on disk, reused by the federation shippers on the wire."""
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def unframe_payload(data: bytes) -> bytes:
    """Inverse of :func:`frame_payload`: verify framing + CRC, return
    the payload.  Raises :class:`CorruptRecord` on any damage -- a
    corrupted shipment is rejected whole, never half-applied."""
    if len(data) < FRAME_HEADER.size:
        raise CorruptRecord("short frame header")
    length, crc = FRAME_HEADER.unpack(data[:FRAME_HEADER.size])
    payload = data[FRAME_HEADER.size:]
    if len(payload) != length or zlib.crc32(payload) != crc:
        raise CorruptRecord("frame failed length/CRC check")
    return payload


# ----------------------------------------------------------------------
# Segment plumbing
# ----------------------------------------------------------------------

@dataclass
class _SegmentInfo:
    """Scan metadata for one segment (sidecar for closed, live for active)."""

    path: Path
    first_seq: int
    count: int
    min_t: Optional[float]          # event-time range (events only)
    max_t: Optional[float]
    # [offset, record_index, watermark]: every record before ``offset``
    # (the first ``record_index`` records) has event time <= watermark.
    checkpoints: List[List[float]]


def _segment_first_seq(path: Path) -> int:
    return int(path.stem.split("-")[1])


def _iter_payloads(path: Path, start_offset: int = len(SEGMENT_MAGIC),
                   stop_offset: Optional[int] = None,
                   ) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(offset, payload)`` for whole, CRC-valid records.  Raises
    :class:`CorruptRecord` on a framing/CRC failure (callers that expect
    a recoverable torn tail use :func:`scan_valid_prefix` instead)."""
    with open(path, "rb") as fh:
        fh.seek(start_offset)
        offset = start_offset
        while stop_offset is None or offset < stop_offset:
            header = fh.read(FRAME_HEADER.size)
            if not header:
                return
            if len(header) < FRAME_HEADER.size:
                raise CorruptRecord(f"{path.name}: short header at {offset}")
            length, crc = FRAME_HEADER.unpack(header)
            payload = fh.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                raise CorruptRecord(f"{path.name}: bad record at {offset}")
            yield offset, payload
            offset += FRAME_HEADER.size + length


def scan_valid_prefix(path: Path) -> Tuple[List[bytes], int]:
    """Read a segment tolerating a torn tail: returns every whole valid
    record plus the byte offset where validity ends (the truncate point)."""
    payloads: List[bytes] = []
    good_end = len(SEGMENT_MAGIC)
    with open(path, "rb") as fh:
        magic = fh.read(len(SEGMENT_MAGIC))
        if magic != SEGMENT_MAGIC:
            return [], len(SEGMENT_MAGIC)
        while True:
            header = fh.read(FRAME_HEADER.size)
            if len(header) < FRAME_HEADER.size:
                break
            length, crc = FRAME_HEADER.unpack(header)
            payload = fh.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                break
            payloads.append(payload)
            good_end += FRAME_HEADER.size + length
    return payloads, good_end


class EventLog:
    """Segmented append-only log with CRC-framed records.

    ``segment_max_records`` bounds segment size (rotation closes the
    active segment, writes its sidecar index, fsyncs per policy, and
    opens the next); ``index_every`` sets the sparse-index granularity;
    ``fsync`` is one of :data:`FSYNC_POLICIES`.

    Opening an existing root re-enters the log: closed segments are
    trusted (their records re-verify by CRC on every read), the tail
    segment is scanned and truncated back to its last whole record
    (``truncated_bytes`` reports how much of a torn write was dropped).
    """

    def __init__(self, root, *, segment_max_records: int = 4096,
                 index_every: int = 64, fsync: str = "rotate") -> None:
        if segment_max_records < 1:
            raise ValueError("segment_max_records must be >= 1")
        if index_every < 1:
            raise ValueError("index_every must be >= 1")
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_max_records = segment_max_records
        self.index_every = index_every
        self.fsync = fsync

        self._fh = None
        self._first_seq = 1          # first seq of the active segment
        self._count = 0              # records in the active segment
        self._offset = len(SEGMENT_MAGIC)  # append position in it
        self._checkpoints: List[List[float]] = []
        self._min_t: Optional[float] = None
        self._max_t: Optional[float] = None
        self._watermark: Optional[float] = None  # running max event time

        self.last_seq = 0
        self.appended = 0            # records appended by *this* process
        self.truncated_bytes = 0     # torn tail dropped at open
        self.segments_rotated = 0
        self.last_scan_stats: Dict[str, int] = {}
        self.last_tail_stats: Dict[str, int] = {}

        self._recover_or_create()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _segment_path(self, first_seq: int) -> Path:
        return self.root / f"seg-{first_seq:010d}.log"

    @staticmethod
    def _index_path(segment: Path) -> Path:
        return segment.with_suffix(".idx.json")

    def segment_paths(self) -> List[Path]:
        return sorted(self.root.glob("seg-*.log"))

    # ------------------------------------------------------------------
    # Open / recover
    # ------------------------------------------------------------------
    def _recover_or_create(self) -> None:
        segments = self.segment_paths()
        if not segments:
            self._open_segment(first_seq=1)
            return
        tail = segments[-1]
        size = tail.stat().st_size
        with open(tail, "rb") as fh:
            magic_ok = fh.read(len(SEGMENT_MAGIC)) == SEGMENT_MAGIC
        if not magic_ok:
            # Torn during segment creation: nothing recoverable in it.
            with open(tail, "wb") as fh:
                fh.write(SEGMENT_MAGIC)
            self.truncated_bytes = size
            payloads = []
        else:
            payloads, good_end = scan_valid_prefix(tail)
            if good_end < size:
                with open(tail, "r+b") as fh:
                    fh.truncate(good_end)
                self.truncated_bytes = size - good_end
        # Rebuild the active segment's in-memory index state.
        self._first_seq = _segment_first_seq(tail)
        self._count = 0
        self._offset = len(SEGMENT_MAGIC)
        self._checkpoints = []
        self._min_t = self._max_t = self._watermark = None
        for payload in payloads:
            self._note_record(payload)
        self.last_seq = self._first_seq + len(payloads) - 1
        self._fh = open(tail, "ab")

    def _open_segment(self, first_seq: int) -> None:
        self._first_seq = first_seq
        self._count = 0
        self._offset = len(SEGMENT_MAGIC)
        self._checkpoints = []
        self._min_t = self._max_t = self._watermark = None
        self._fh = open(self._segment_path(first_seq), "wb")
        self._fh.write(SEGMENT_MAGIC)

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    def _note_times(self, times: Sequence[float]) -> None:
        for t in times:
            if self._min_t is None or t < self._min_t:
                self._min_t = t
            if self._max_t is None or t > self._max_t:
                self._max_t = t
            if self._watermark is None or t > self._watermark:
                self._watermark = t

    def _note_record(self, payload: bytes) -> None:
        """Advance the active segment's index state for one record."""
        if self._count % self.index_every == 0:
            self._checkpoints.append(
                [self._offset, self._count,
                 self._watermark if self._watermark is not None else None])
        obj = json.loads(payload.decode("utf-8"))
        if obj[0] == "b":
            self._note_times([float(e[1]) for e in obj[3]])
        self._offset += FRAME_HEADER.size + len(payload)
        self._count += 1

    def _append_payload(self, payload: bytes,
                        event_times: Sequence[float]) -> int:
        if self._count >= self.segment_max_records:
            self.rotate()
        if self._count % self.index_every == 0:
            self._checkpoints.append(
                [self._offset, self._count,
                 self._watermark if self._watermark is not None else None])
        self._fh.write(FRAME_HEADER.pack(len(payload), zlib.crc32(payload)))
        self._fh.write(payload)
        self._offset += FRAME_HEADER.size + len(payload)
        self._count += 1
        self.last_seq += 1
        self.appended += 1
        self._note_times(event_times)
        return self.last_seq

    def _policy_sync(self) -> None:
        if self.fsync == "always":
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def append(self, dispatch_t: float, shard: int,
               event: SecurityEvent) -> int:
        """Archive one event as a singleton batch; returns its seq."""
        return self.append_batch(dispatch_t, shard, [event])

    def append_batch(self, dispatch_t: float, shard: int,
                     events: Sequence[SecurityEvent]) -> int:
        """Archive one drained batch as one record (the batch-sink tap
        calls this once per dispatch batch, which is what preserves the
        batch boundaries replay needs); returns its sequence number."""
        seq = self._append_payload(
            canonical_dumps(["b", dispatch_t, shard, events]),
            [e.time for e in events])
        self._policy_sync()
        return seq

    def append_mark(self, t: float, pump_no: int) -> int:
        """Append a pump marker: replay re-runs the campaign merge here."""
        seq = self._append_payload(canonical_dumps(["m", t, pump_no]), ())
        self._policy_sync()
        return seq

    def rotate(self) -> None:
        """Close the active segment (sidecar index + fsync per policy)
        and open the next.  No-op on an empty segment."""
        if self._count == 0:
            return
        self._fh.flush()
        if self.fsync != "never":
            os.fsync(self._fh.fileno())
        self._fh.close()
        self._write_sidecar()
        self.segments_rotated += 1
        self._open_segment(self.last_seq + 1)

    def _write_sidecar(self) -> None:
        index = {
            "first_seq": self._first_seq,
            "count": self._count,
            "min_t": self._min_t,
            "max_t": self._max_t,
            "checkpoints": self._checkpoints,
        }
        path = self._index_path(self._segment_path(self._first_seq))
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(index, sort_keys=True))
        os.replace(tmp, path)

    def sync(self) -> None:
        """Flush and (unless ``fsync='never'``) fsync the active segment.
        Called before every snapshot so a snapshot never references log
        records less durable than itself."""
        self._fh.flush()
        if self.fsync != "never":
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self.sync()
            self._fh.close()

    def truncate_after_last_mark(self) -> Dict[str, int]:
        """Physically drop every record after the last pump marker.

        The service-restart entry point: a worker killed mid-handoff may
        have archived part of the handoff's batch records without
        reaching the pump marker that seals them.  Replaying those would
        double-admit the handoff when the frontend resubmits it, and the
        re-appended copies would duplicate bytes versus an uninterrupted
        twin log.  Truncating back to the last marker makes the
        resubmitted handoff re-archive the exact same bytes, which is
        what keeps the auto-restart differential byte-identical.

        Trailing segments that contain no marker at all are deleted
        outright (with their sidecar indexes); the sidecar of a
        truncated closed segment is dropped too -- it is rebuilt when
        the segment next rotates.  If the log holds no marker anywhere,
        everything is dropped and the log restarts empty at seq 0.
        Returns ``{"records_dropped", "bytes_dropped",
        "segments_deleted"}``.
        """
        self.close()
        stats = {"records_dropped": 0, "bytes_dropped": 0,
                 "segments_deleted": 0}
        for path in reversed(self.segment_paths()):
            size = path.stat().st_size
            payloads, _ = scan_valid_prefix(path)
            keep_end = len(SEGMENT_MAGIC)
            keep_records = 0
            offset = len(SEGMENT_MAGIC)
            for i, payload in enumerate(payloads):
                offset += FRAME_HEADER.size + len(payload)
                if payload.startswith(b'["m"'):
                    keep_end = offset
                    keep_records = i + 1
            if keep_records == 0:
                # No marker anywhere in this segment: nothing survives.
                stats["records_dropped"] += len(payloads)
                stats["bytes_dropped"] += max(0, size - len(SEGMENT_MAGIC))
                stats["segments_deleted"] += 1
                self._index_path(path).unlink(missing_ok=True)
                path.unlink()
                continue
            if keep_end < size:
                stats["records_dropped"] += len(payloads) - keep_records
                stats["bytes_dropped"] += size - keep_end
                with open(path, "r+b") as fh:
                    fh.truncate(keep_end)
                # The sidecar (if this was a closed segment) now lies
                # about the record count; the segment becomes the active
                # tail and re-earns one at its next rotation.
                self._index_path(path).unlink(missing_ok=True)
            break
        self.last_seq = 0  # recomputed from the surviving tail (if any)
        self._recover_or_create()
        return stats

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _segment_infos(self) -> List[_SegmentInfo]:
        infos: List[_SegmentInfo] = []
        for path in self.segment_paths():
            first_seq = _segment_first_seq(path)
            if first_seq == self._first_seq:
                infos.append(_SegmentInfo(
                    path, first_seq, self._count, self._min_t, self._max_t,
                    list(self._checkpoints)))
                continue
            idx_path = self._index_path(path)
            if idx_path.exists():
                idx = json.loads(idx_path.read_text())
                infos.append(_SegmentInfo(
                    path, idx["first_seq"], idx["count"],
                    idx["min_t"], idx["max_t"], idx["checkpoints"]))
            else:  # sidecar lost: fall back to an unindexed full scan
                count = sum(1 for _ in _iter_payloads(path))
                infos.append(_SegmentInfo(path, first_seq, count,
                                          None, None, []))
        return infos

    def replay(self, after_seq: int = 0) -> Iterator[LogRecord]:
        """Yield every record with ``seq > after_seq`` in append order
        (batches *and* pump markers -- recovery replays both)."""
        self._fh.flush()  # the active segment must be readable
        for info in self._segment_infos():
            if info.first_seq + info.count - 1 <= after_seq:
                continue
            for i, (_, payload) in enumerate(_iter_payloads(info.path)):
                seq = info.first_seq + i
                if seq <= after_seq:
                    continue
                yield record_from_payload(seq, payload)

    def tail(self, after_seq: int = 0) -> Iterator[LogRecord]:
        """Yield every record with ``seq > after_seq`` like
        :meth:`replay`, but *seek* instead of rescan: segments wholly at
        or before ``after_seq`` are skipped by their sidecar metadata,
        and within the first overlapping segment the sparse index jumps
        to the last checkpoint at or before the resume point.  This is
        the shipper's read path -- called once per pump with a
        monotonically advancing cursor, it reads O(new records +
        ``index_every``) instead of O(segment size).

        ``last_tail_stats`` records ``segments_skipped``,
        ``records_read`` (records decoded, including up to
        ``index_every - 1`` pre-cursor records after the checkpoint
        seek), ``records_yielded``, and ``bytes_seeked`` (bytes the
        checkpoint seek avoided reading) for the regression pin.
        """
        self._fh.flush()  # the active segment must be readable
        stats = {"segments_skipped": 0, "records_read": 0,
                 "records_yielded": 0, "bytes_seeked": 0}
        self.last_tail_stats = stats
        for info in self._segment_infos():
            if info.first_seq + info.count - 1 <= after_seq:
                stats["segments_skipped"] += 1
                continue
            start_offset, start_index = len(SEGMENT_MAGIC), 0
            # Records are seq-contiguous, so checkpoint ``record_index``
            # maps directly to seq: seek to the last checkpoint whose
            # first record is still <= the resume point.
            for offset, index, _watermark in info.checkpoints:
                if info.first_seq + int(index) <= after_seq + 1:
                    start_offset, start_index = int(offset), int(index)
                else:
                    break
            stats["bytes_seeked"] += start_offset - len(SEGMENT_MAGIC)
            for i, (_, payload) in enumerate(_iter_payloads(
                    info.path, start_offset=start_offset)):
                stats["records_read"] += 1
                seq = info.first_seq + start_index + i
                if seq <= after_seq:
                    continue
                stats["records_yielded"] += 1
                yield record_from_payload(seq, payload)

    def scan(self, signature: Optional[str] = None,
             vehicle_id: Optional[str] = None,
             t0: Optional[float] = None, t1: Optional[float] = None,
             max_disorder_s: Optional[float] = None,
             ) -> Iterator[ScanHit]:
        """Forensics query over archived events.

        Filters compose conjunctively; ``t0``/``t1`` bound the *event*
        time (closed interval).  Closed segments are skipped whole when
        their ``[min_t, max_t]`` misses ``[t0, t1]``, and the sparse
        index seeks past the prefix whose watermark proves every earlier
        record is older than ``t0``.  ``max_disorder_s`` -- the stream's
        out-of-order bound (the correlator's ``max_lateness_s``) -- also
        lets the scan stop early once the watermark passes ``t1 +
        max_disorder_s``; leave ``None`` to assume nothing.
        """
        self._fh.flush()
        stats = {"segments": 0, "segments_skipped": 0, "records_read": 0,
                 "bytes_seeked": 0}
        self.last_scan_stats = stats
        for info in self._segment_infos():
            stats["segments"] += 1
            if info.min_t is not None and (
                    (t1 is not None and info.min_t > t1)
                    or (t0 is not None and info.max_t is not None
                        and info.max_t < t0)):
                stats["segments_skipped"] += 1
                continue
            start_offset, start_index = len(SEGMENT_MAGIC), 0
            stop_offset: Optional[int] = None
            if t0 is not None:
                for offset, index, watermark in info.checkpoints:
                    # None = no events before this checkpoint, which
                    # vacuously proves the prefix is older than t0 too.
                    if watermark is None or watermark < t0:
                        start_offset, start_index = int(offset), int(index)
                    else:
                        break
            if t1 is not None and max_disorder_s is not None:
                for offset, _, watermark in info.checkpoints:
                    if watermark is not None and (
                            watermark > t1 + max_disorder_s):
                        stop_offset = int(offset)
                        break
            stats["bytes_seeked"] += start_offset - len(SEGMENT_MAGIC)
            for i, (_, payload) in enumerate(_iter_payloads(
                    info.path, start_offset=start_offset,
                    stop_offset=stop_offset)):
                stats["records_read"] += 1
                record = record_from_payload(
                    info.first_seq + start_index + i, payload)
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
                    yield ScanHit(seq=record.seq,
                                  dispatch_t=record.dispatch_t,
                                  shard=record.shard, event=event)


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------

class SnapshotStore:
    """CRC-guarded JSON snapshots with bounded retention.

    Files are written atomically (tmp + rename + fsync); ``load_latest``
    walks newest-first and silently skips corrupt or torn snapshots, so
    a crash mid-snapshot costs at most one snapshot interval of replay,
    never the recovery itself.  ``keep`` bounds on-disk retention (the
    log, not the snapshot chain, is the durable history).
    """

    def __init__(self, root, keep: int = 4) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        existing = self._paths()
        self._next = (
            int(existing[-1].stem.split("-")[1]) + 1 if existing else 1)

    def _paths(self) -> List[Path]:
        return sorted(self.root.glob("snap-*.json"))

    def save(self, payload: dict) -> Path:
        body = json.dumps(payload, sort_keys=True)
        wrapped = json.dumps(
            {"crc32": zlib.crc32(body.encode("utf-8")), "payload": payload},
            sort_keys=True)
        path = self.root / f"snap-{self._next:08d}.json"
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            fh.write(wrapped)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._next += 1
        for stale in self._paths()[:-self.keep]:
            stale.unlink()
        return path

    def load_latest(self) -> Optional[dict]:
        """Newest snapshot whose CRC verifies; ``None`` if none do."""
        for path in reversed(self._paths()):
            try:
                wrapped = json.loads(path.read_text())
                body = json.dumps(wrapped["payload"], sort_keys=True)
                if zlib.crc32(body.encode("utf-8")) == wrapped["crc32"]:
                    return wrapped["payload"]
            except (ValueError, KeyError, OSError):
                continue
        return None


class DurableStore:
    """One root holding the event log and the snapshot chain::

        <root>/log/seg-0000000001.log     (+ .idx.json sidecars)
        <root>/snapshots/snap-00000001.json
    """

    def __init__(self, root, *, segment_max_records: int = 4096,
                 index_every: int = 64, fsync: str = "rotate",
                 keep_snapshots: int = 4) -> None:
        self.root = Path(root)
        self.log = EventLog(self.root / "log",
                            segment_max_records=segment_max_records,
                            index_every=index_every, fsync=fsync)
        self.snapshots = SnapshotStore(self.root / "snapshots",
                                       keep=keep_snapshots)

    def close(self) -> None:
        self.log.close()
