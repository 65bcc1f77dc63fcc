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
``tests/test_soc_store.py``): load the latest valid snapshot, apply the
log suffix after the snapshot's ``log_seq`` through
:meth:`~repro.soc.center.AnalyticState.apply` -- batches observed, the
campaign merge re-run at every pump marker.  The recovered
correlator/merger/tracker state equals an uninterrupted run's state at
the kill point, at 1 and N shards.

Durability contract: a pump marker is the commit point, and
:meth:`EventLog.append_mark` flushes the log to the OS, never to the
disk -- so a killed process loses nothing up to its last marker.
Records reach the disk (fsync) only when a segment closes
(:meth:`EventLog.rotate`), in :meth:`EventLog.sync` before every
snapshot, and at :meth:`EventLog.close` (a sync with nothing written
since the last fsync skips it); a machine crash may lose the records
since the last of those.

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

Every frame -- a segment record here, a wire message in
:mod:`repro.soc.service`, a shipment in :mod:`repro.soc.federation` --
is parsed by one function, :func:`iter_frames`; files stream through
it in fixed-size chunks, and :func:`scan_valid_prefix` is that file
read's torn-tail-tolerant form.

Reads: the log keeps its segment table in memory.  The segment file
names are the index -- ``seg-<first_seq>.log`` -- so at open a closed
segment's record count is the next segment's first seq minus its own,
and only the tail is scanned.  Segments this process wrote also carry
every :data:`INDEX_EVERY`-th record's ``(offset, index)`` checkpoint.
:meth:`EventLog.payloads` ``(after_seq)``, the one reader, bisects to
the segment holding the resume point, seeks to its last checkpoint at
or before it (a closed segment from an earlier process has none and is
scanned from its start), and yields raw ``(seq, payload)`` pairs, so
recovery from a snapshot and the federation shipper's per-pump read
cost the suffix, not the log.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import starmap
from operator import attrgetter
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.soc.events import CorruptRecord, SecurityEvent, event_from_obj

#: First bytes of every segment file.
SEGMENT_MAGIC = b"SOCLOG1\n"
#: Record header: payload length, CRC32 of the payload (little-endian).
FRAME_HEADER = struct.Struct("<II")

#: Sparse-index granularity: every ``INDEX_EVERY``-th record of a
#: segment gets an ``(offset, index)`` checkpoint.
INDEX_EVERY = 64
#: Snapshots a :class:`SnapshotStore` keeps on disk (the log, not the
#: snapshot chain, is the durable history).
SNAPSHOT_KEEP = 4


# ----------------------------------------------------------------------
# Codec: canonical JSON, byte-identical round trip
# ----------------------------------------------------------------------

def canonical_dumps(obj) -> bytes:
    """The one encoding of wire messages, log records and shipments (an
    event encodes as-is).  Compact separators + repr-based floats: Python
    floats round-trip exactly through json, so re-encoding a decoded
    event reproduces the original bytes.  NaN and infinities are
    rejected (JSON has no spelling for them)."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False).encode("utf-8")


@dataclass(frozen=True)
class LogRecord:
    """One replayed log entry: an archived batch or a pump marker."""

    seq: int                 # global 1-based record sequence number
    kind: str                # "batch" | "mark"
    dispatch_t: float        # sim time of the dispatching pump
    shard: int = 0           # ingest shard the batch drained from
    events: Tuple[SecurityEvent, ...] = ()
    pump_no: int = -1        # markers: the pump's ordinal


def record_from_payload(seq: int, payload: bytes) -> LogRecord:
    """Decode one log payload; raises :class:`CorruptRecord` on an
    unknown tag or a schema-violating event."""
    obj = json.loads(payload.decode("utf-8"))
    if obj[0] == "b":
        return LogRecord(seq=seq, kind="batch", dispatch_t=float(obj[1]),
                         shard=int(obj[2]),
                         events=tuple(map(event_from_obj, obj[3])))
    if obj[0] == "m":
        return LogRecord(seq=seq, kind="mark", dispatch_t=float(obj[1]),
                         pump_no=int(obj[2]))
    raise CorruptRecord(f"unknown record tag {obj[0]!r} at seq {seq}")


def frame_payload(payload: bytes) -> bytes:
    """Frame one payload with the log's record codec (``u32 len | u32
    CRC32 | payload``) -- the same self-verifying envelope segments use
    on disk, reused by the federation shippers on the wire."""
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def iter_frames(buf, max_frame_bytes: Optional[int],
                ) -> Iterator[Tuple[int, bytes]]:
    """The one frame parser (wire stream, shipment and segment file all
    read through it).  Yields ``(end, payload)`` for each whole frame at
    the front of ``buf`` -- ``end`` is the offset just past that frame --
    and stops at a trailing partial frame: a torn frame is simply
    *incomplete*, never delivered.  Damage that is provable (a CRC
    mismatch, or a length field beyond a non-``None``
    ``max_frame_bytes``) raises :class:`CorruptRecord`; there is no
    resynchronization point after a bad header, so the reader must drop
    the rest."""
    header = FRAME_HEADER.size
    size = len(buf)
    pos = 0
    while size - pos >= header:
        length, crc = FRAME_HEADER.unpack_from(buf, pos)
        if max_frame_bytes is not None and length > max_frame_bytes:
            raise CorruptRecord(
                f"frame length {length} exceeds {max_frame_bytes}")
        end = pos + header + length
        if end > size:
            return
        payload = bytes(buf[pos + header:end])
        if zlib.crc32(payload) != crc:
            raise CorruptRecord(f"frame at offset {pos} failed its CRC check")
        yield end, payload
        pos = end


# ----------------------------------------------------------------------
# Segment plumbing
# ----------------------------------------------------------------------

@dataclass
class _Segment:
    """One segment's entry in the log's in-memory table; the last entry
    is the active segment, every earlier one is closed and immutable."""

    first_seq: int
    count: int = 0
    # [offset, record_index]: record ``record_index`` starts at
    # ``offset``.  Empty for a closed segment an earlier process wrote.
    checkpoints: List[List[int]] = field(default_factory=list)


def _segment_first_seq(path: Path) -> int:
    return int(path.stem.split("-")[1])


#: Bytes per read when streaming a segment-format file.
_READ_CHUNK = 1 << 16


def _read_frames(path: Path, start_offset: int, *,
                 tolerant: bool) -> Iterator[Tuple[int, bytes]]:
    """Stream ``(end, payload)`` for the records of a segment-format file
    from ``start_offset`` (a record boundary) to the end, reading
    fixed-size chunks through :func:`iter_frames`, so memory stays
    bounded by one chunk plus one record.  A torn or CRC-failing record
    raises :class:`CorruptRecord` -- or, with ``tolerant``, ends the
    stream there (the torn-tail read :func:`scan_valid_prefix` does)."""
    buf = b""
    base = start_offset  # file offset of buf[0]
    with open(path, "rb") as fh:
        fh.seek(start_offset)
        while True:
            chunk = fh.read(_READ_CHUNK)
            if not chunk:
                break
            buf += chunk
            used = 0
            try:
                for used, payload in iter_frames(buf, None):
                    yield base + used, payload
            except CorruptRecord:
                if tolerant:
                    return
                raise CorruptRecord(
                    f"{path.name}: bad record at {base + used}") from None
            buf = buf[used:]
            base += used
    if buf and not tolerant:
        raise CorruptRecord(f"{path.name}: torn record at {base}")


def scan_valid_prefix(path: Path) -> Tuple[List[bytes], int]:
    """Read a segment-format file tolerating a torn tail: returns every
    whole valid record plus the byte offset where validity ends (the
    truncate point)."""
    with open(path, "rb") as fh:
        if fh.read(len(SEGMENT_MAGIC)) != SEGMENT_MAGIC:
            return [], len(SEGMENT_MAGIC)
    payloads: List[bytes] = []
    good_end = len(SEGMENT_MAGIC)
    for good_end, payload in _read_frames(path, len(SEGMENT_MAGIC),
                                          tolerant=True):
        payloads.append(payload)
    return payloads, good_end


class EventLog:
    """Segmented append-only log with CRC-framed records.

    ``segment_max_records`` bounds segment size (rotation fsyncs and
    closes the active segment, whose entry and checkpoints stay in the
    in-memory segment table, and opens the next; :data:`INDEX_EVERY`
    sets the checkpoint granularity).

    A pump marker is the commit point: :meth:`append_mark` flushes the
    log to the OS, never to the disk.  Records reach the disk only at
    :meth:`rotate`, :meth:`sync` (before every snapshot) and
    :meth:`close`.

    Opening an existing root re-enters the log: the segment table comes
    from the file names, closed segments are trusted (every read
    re-verifies their records by CRC and their count against the
    names), and the tail segment is scanned and truncated back to its
    last whole record, dropping a torn write.
    """

    def __init__(self, root, *, segment_max_records: int = 4096) -> None:
        if segment_max_records < 1:
            raise ValueError("segment_max_records must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_max_records = segment_max_records

        self._fh = None
        self._segments: List[_Segment] = []  # last entry: the active one
        self._offset = len(SEGMENT_MAGIC)  # append position in it
        self._unsynced = True        # bytes written since the last fsync

        self.last_seq = 0

        self._recover_or_create()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _segment_path(self, first_seq: int) -> Path:
        return self.root / f"seg-{first_seq:010d}.log"

    def segment_paths(self) -> List[Path]:
        return sorted(self.root.glob("seg-*.log"))

    # ------------------------------------------------------------------
    # Open / recover
    # ------------------------------------------------------------------
    def _recover_or_create(self) -> None:
        paths = self.segment_paths()
        self._segments = []
        if not paths:
            self._open_segment(first_seq=1)
            return
        firsts = [_segment_first_seq(path) for path in paths]
        # A closed segment holds every seq before its successor's first.
        self._segments = [_Segment(first, after - first)
                          for first, after in zip(firsts, firsts[1:])]
        tail = paths[-1]
        size = tail.stat().st_size
        with open(tail, "rb") as fh:
            magic_ok = fh.read(len(SEGMENT_MAGIC)) == SEGMENT_MAGIC
        if not magic_ok:
            # Torn during segment creation: nothing recoverable in it.
            with open(tail, "wb") as fh:
                fh.write(SEGMENT_MAGIC)
            payloads = []
        else:
            payloads, good_end = scan_valid_prefix(tail)
            if good_end < size:
                with open(tail, "r+b") as fh:
                    fh.truncate(good_end)
        # Rebuild the active segment's entry from its frames.
        self._segments.append(_Segment(firsts[-1]))
        self._offset = len(SEGMENT_MAGIC)
        for payload in payloads:
            self._note_record(len(payload))
        self.last_seq = firsts[-1] + len(payloads) - 1
        self._fh = open(tail, "ab")
        self._unsynced = True

    def _open_segment(self, first_seq: int) -> None:
        self._segments.append(_Segment(first_seq))
        self._offset = len(SEGMENT_MAGIC)
        self._fh = open(self._segment_path(first_seq), "wb")
        self._fh.write(SEGMENT_MAGIC)
        self._unsynced = True

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    def _note_record(self, size: int) -> None:
        """Advance the active segment's entry past one record of
        ``size`` payload bytes."""
        active = self._segments[-1]
        if active.count % INDEX_EVERY == 0:
            active.checkpoints.append([self._offset, active.count])
        self._offset += FRAME_HEADER.size + size
        active.count += 1

    def _append_payload(self, payload: bytes) -> int:
        if self._segments[-1].count >= self.segment_max_records:
            self.rotate()
        self._note_record(len(payload))
        self._fh.write(FRAME_HEADER.pack(len(payload), zlib.crc32(payload)))
        self._fh.write(payload)
        self.last_seq += 1
        self._unsynced = True
        return self.last_seq

    def append_batch(self, dispatch_t: float, shard: int,
                     events: Sequence[SecurityEvent]) -> int:
        """Archive one drained batch as one record (the batch-sink tap
        calls this once per dispatch batch, which is what preserves the
        batch boundaries replay needs); returns its sequence number."""
        return self._append_payload(
            canonical_dumps(["b", dispatch_t, shard, events]))

    def append_mark(self, t: float, pump_no: int) -> int:
        """Append a pump marker, the commit point, and flush the log to
        the OS (not the disk): replay re-runs the campaign merge here."""
        seq = self._append_payload(canonical_dumps(["m", t, pump_no]))
        self._fh.flush()
        return seq

    def rotate(self) -> None:
        """Close the active segment (fsync) and open the next.  No-op on
        an empty segment."""
        if self._segments[-1].count == 0:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._open_segment(self.last_seq + 1)

    def sync(self) -> None:
        """Flush and fsync the active segment, unless nothing was
        written to it since its last fsync.  Called before every
        snapshot so a snapshot never references log records less
        durable than itself."""
        if self._unsynced:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._unsynced = False

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self.sync()
            self._fh.close()

    def truncate_after_last_mark(self) -> None:
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
        outright; the segment holding the last marker becomes the
        active tail.  If the log holds no marker anywhere, everything
        is dropped and the log restarts empty at seq 0.
        """
        self.close()
        for path in reversed(self.segment_paths()):
            payloads, _ = scan_valid_prefix(path)
            keep_end = None
            offset = len(SEGMENT_MAGIC)
            for payload in payloads:
                offset += FRAME_HEADER.size + len(payload)
                if payload.startswith(b'["m"'):
                    keep_end = offset
            if keep_end is None:
                # No marker anywhere in this segment: nothing survives.
                path.unlink()
                continue
            if keep_end < path.stat().st_size:
                with open(path, "r+b") as fh:
                    fh.truncate(keep_end)
            break
        self.last_seq = 0  # recomputed from the surviving tail (if any)
        self._recover_or_create()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def payloads(self, after_seq: int = 0) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(seq, payload)`` for every record with ``seq >
        after_seq``, in append order: the CRC-verified bytes as
        archived, batches and pump markers alike.

        The read costs the suffix: it bisects the segment table on
        first seq, opens only the segments it reads, and enters the
        first of them at its last checkpoint at or before the resume
        point (a closed segment an earlier process wrote has no
        checkpoints and is read from its start).  Recovery
        (``after_seq`` = the snapshot's ``log_seq``) and the federation
        shipper (once per pump, with an advancing cursor) therefore read
        O(new records + :data:`INDEX_EVERY`), and open nothing when
        nothing is new.  A segment whose records do not number what the
        segment names imply -- a truncated or lost segment would skip
        seqs silently -- raises :class:`CorruptRecord`.
        """
        if after_seq >= self.last_seq:
            return
        self._fh.flush()  # the active segment must be readable
        segments = self._segments
        start = bisect_right(segments, after_seq + 1,
                             key=attrgetter("first_seq")) - 1
        if start < 0:
            raise CorruptRecord(f"log starts at seq {segments[0].first_seq}"
                                f", seq {after_seq + 1} is lost")
        for segment in segments[start:]:
            offset, seq = len(SEGMENT_MAGIC), segment.first_seq
            for checkpoint, index in segment.checkpoints:
                if segment.first_seq + index > after_seq + 1:
                    break
                offset, seq = checkpoint, segment.first_seq + index
            stop = segment.first_seq + segment.count
            path = self._segment_path(segment.first_seq)
            for _, payload in _read_frames(path, offset, tolerant=False):
                if seq == stop:
                    raise CorruptRecord(f"{path.name} runs past seq "
                                        f"{stop - 1}")
                if seq > after_seq:
                    yield seq, payload
                seq += 1
            if seq != stop:
                raise CorruptRecord(f"{path.name} ends at seq {seq - 1}, "
                                    f"not {stop - 1}")

    def replay(self, after_seq: int = 0) -> Iterator[LogRecord]:
        """:meth:`payloads` decoded: every record with ``seq >
        after_seq`` as a :class:`LogRecord`, in append order (batches
        *and* pump markers -- recovery replays both).  Raises
        :class:`CorruptRecord` where :meth:`payloads` does, and on a
        record that fails :func:`record_from_payload`'s schema check."""
        return starmap(record_from_payload, self.payloads(after_seq))


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------

class SnapshotStore:
    """CRC-guarded JSON snapshots with bounded retention.

    Files are written atomically (tmp + rename + fsync); ``load_latest``
    walks newest-first and silently skips corrupt or torn snapshots, so
    a crash mid-snapshot costs at most one snapshot interval of replay,
    never the recovery itself.  :data:`SNAPSHOT_KEEP` bounds on-disk
    retention.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
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
        for stale in self._paths()[:-SNAPSHOT_KEEP]:
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

        <root>/log/seg-0000000001.log
        <root>/snapshots/snap-00000001.json
    """

    def __init__(self, root, *, segment_max_records: int = 4096) -> None:
        self.root = Path(root)
        self.log = EventLog(self.root / "log",
                            segment_max_records=segment_max_records)
        self.snapshots = SnapshotStore(self.root / "snapshots")

    def close(self) -> None:
        self.log.close()
