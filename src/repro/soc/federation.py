"""Federated multi-region VSOC: durable log-shipping + cross-region merge.

The paper's §7 closes on the need for a *centralized, fleet-wide
security policy* loop; a real OEM backend deploys that loop per
continent, not as one process.  This module federates M regional SOCs
(each its own sharded ingest + correlators + durable
:class:`~repro.soc.store.EventLog`) into one fleet-wide campaign view by
shipping the regions' **log-segment streams** -- the same self-framing
CRC records PR 4 made the recovery substrate -- instead of in-process
calls:

- :class:`SegmentShipper` tails a region's log through the checkpoint-
  seeking :meth:`~repro.soc.store.EventLog.payloads`
  ``(after_seq=cursor)`` and frames the new records' archived bytes,
  undecoded, into shipment wire blobs.  The
  durable log *is* the retransmit buffer: a send refused by an outage
  window simply leaves the cursor in place and retries next pump, and a
  shipper restarted from seq 0 after a region kill re-ships history the
  receiver dedups.
- :class:`ShippingChannel` models the WAN: configurable base lag,
  jitter (which reorders), duplication, and outage windows, all driven
  by a seeded RNG so every delivery schedule is reproducible.
- :meth:`FederationHub.receive` decodes each blob once
  (:func:`decode_shipment`, which verifies every frame's CRC), refuses
  a torn or unroutable blob (unknown region, or a batch naming a shard
  the hub does not have) whole -- counted in
  ``metrics()["corrupt_rejected"]`` -- and hands the :class:`Shipment`
  to its region's :class:`SegmentReceiver`, which dedups records by
  per-region sequence number and buffers out-of-order arrivals until
  they are contiguous.
- :class:`FederationHub` applies received records to one
  :class:`~repro.soc.center.AnalyticState` -- replica engines for every
  (region, shard), one :class:`~repro.soc.correlate.GlobalCampaignMerger`
  and an incident tracker, changed by a record exactly as the region's
  own centre and its crash recovery change theirs -- gated by
  **per-region low-watermarks**: a record is applied only once
  every other region's frontier proves no earlier record can still
  arrive.  The applied sequence is therefore exactly the global
  ``(dispatch_t, region, seq)`` sort of all regions' streams --
  *independent of delivery interleaving* -- which is what makes the
  hub's final state byte-identical across any bounded-lag reordering
  (the Hypothesis property in ``tests/test_soc_federation.py``) and
  identical to an in-order union replay at zero lag.

The price of that determinism is strict consistency: a partitioned
region freezes its frontier, which stalls the *global* merge until the
partition heals (the hub cannot prove order without it).  E18's
partition/heal cell measures exactly that trade -- and a
``staleness_budget_s`` buys the availability back.  When every region
blocking the gate has been stale past that budget the hub freezes a
**reconciliation frontier** (a snapshot of the analytic state at the
last provably-ordered point), keeps applying the healthy regions'
records beyond it, and tags the resulting verdicts
``provisional=True``.  When the laggard catches up -- or is declared
dead -- a deterministic reconciliation pass replays the frontier-to-now
union in canonical ``(dispatch_t, region, seq)`` order into a shadow
rebuild, classifies every provisional verdict (confirm / amend /
retract, journaled as :class:`~repro.soc.incident.Amendment`), and
swaps the shadow in, so the reconciled analytic snapshot is
byte-identical to what the strict gate would have produced from the
same shipments (the differential property in
``tests/test_soc_chaos.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from itertools import islice
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.soc.center import AnalyticState
from repro.soc.correlate import (
    CampaignDetection,
    GlobalCampaignMerger,
    enc_time,
)
from repro.soc.incident import Amendment, IncidentTracker
from repro.soc.store import (
    CorruptRecord,
    EventLog,
    LogRecord,
    canonical_dumps,
    frame_payload,
    iter_frames,
    record_from_payload,
)

_NEG_INF = float("-inf")

#: Records per shipment blob: a longer suffix ships as several blobs.
SHIPMENT_MAX_RECORDS = 256


# ----------------------------------------------------------------------
# Wire format: shipments of CRC-framed log records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Shipment:
    """One decoded wire blob: a contiguous run of one region's log
    records (the hub's form; the shipper never builds one).

    ``watermark`` is the ``dispatch_t`` of the last record -- proven by
    the log content itself, never by the shipper's clock, so a replayed
    shipment carries the same bytes no matter when it is (re)sent.
    """

    region: str
    first_seq: int
    last_seq: int
    watermark: float
    records: Tuple[LogRecord, ...]


def encode_shipment(region: str, first_seq: int,
                    payloads: Sequence[bytes]) -> bytes:
    """Serialize a run of one region's raw log payloads, seqs from
    ``first_seq`` on: one framed header + one framed payload per
    record, each in the log's own ``u32 len | u32 CRC32 | payload``
    envelope, so the wire format self-verifies exactly like a segment on
    disk.  The payloads ship as archived, undecoded; the header's
    watermark is the last one's ``dispatch_t``, read the way
    :func:`~repro.soc.store.record_from_payload` reads it."""
    if not payloads:
        raise ValueError("a shipment carries at least one record")
    head = canonical_dumps(["h", region, first_seq,
                            first_seq + len(payloads) - 1,
                            float(json.loads(payloads[-1])[1])])
    return b"".join([frame_payload(head), *map(frame_payload, payloads)])


def decode_shipment(data: bytes) -> Shipment:
    """Parse + verify a shipment; raises :class:`CorruptRecord` on any
    framing/CRC/consistency damage (a bad blob is rejected whole)."""
    payloads: List[bytes] = []
    end = 0
    for end, payload in iter_frames(data, None):
        payloads.append(payload)
    if end != len(data):
        raise CorruptRecord("shipment: torn final frame")
    if not payloads:
        raise CorruptRecord("shipment: empty blob")
    head = json.loads(payloads[0].decode("utf-8"))
    if head[0] != "h":
        raise CorruptRecord(f"shipment: bad header tag {head[0]!r}")
    _, region, first_seq, last_seq, watermark = head
    first_seq, last_seq = int(first_seq), int(last_seq)
    if len(payloads) - 1 != last_seq - first_seq + 1:
        raise CorruptRecord("shipment: record count does not match header")
    records = tuple(record_from_payload(first_seq + i, p)
                    for i, p in enumerate(payloads[1:]))
    if records[-1].dispatch_t != float(watermark):
        raise CorruptRecord("shipment: watermark does not match last record")
    return Shipment(region=region, first_seq=first_seq, last_seq=last_seq,
                    watermark=float(watermark), records=records)


# ----------------------------------------------------------------------
# Transport model
# ----------------------------------------------------------------------

class ShippingChannel:
    """A deterministic, seeded WAN model for one region -> hub link.

    ``lag_s`` is the base one-way delay; ``jitter_s`` adds a uniform
    random extra per blob (two blobs sent back-to-back can therefore
    arrive *reordered*); with probability ``duplicate_p`` a blob is
    delivered twice; during any ``outages`` window the link refuses
    sends outright (:meth:`send` returns ``False`` -- the shipper keeps
    its cursor and the durable log retransmits later, so an outage
    loses nothing, it only delays).

    Outage windows are **half-open** ``[t0, t1)``: a send at exactly
    ``t0`` is refused, a send at exactly ``t1`` succeeds.  That
    convention is part of the wire contract -- retry loops schedule
    their next pump *at* the advertised outage end, so an inclusive
    right edge would silently eat exactly that retry (pinned by
    ``test_outage_window_boundaries``).  ``outage_refused`` counts the
    refusals (today every refusal is an outage refusal; the split name
    keeps the stat meaningful if other refusal reasons appear).
    """

    def __init__(self, rng, lag_s: float = 0.0, jitter_s: float = 0.0,
                 duplicate_p: float = 0.0,
                 outages: Sequence[Tuple[float, float]] = ()) -> None:
        if lag_s < 0 or jitter_s < 0 or not (0.0 <= duplicate_p <= 1.0):
            raise ValueError("bad channel parameters")
        self._rng = rng
        self.lag_s = lag_s
        self.jitter_s = jitter_s
        self.duplicate_p = duplicate_p
        self.outages = tuple(outages)
        self._in_flight: List[Tuple[float, int, bytes]] = []
        self._tie = 0
        self._corrupt_pending = 0
        self.sent = 0
        self.refused = 0
        self.outage_refused = 0
        self.duplicated = 0
        self.corrupted = 0

    def in_outage(self, now: float) -> bool:
        """True inside any half-open window: ``t0 <= now < t1``."""
        return any(t0 <= now < t1 for t0, t1 in self.outages)

    def send(self, now: float, data: bytes) -> bool:
        if self.in_outage(now):
            self.refused += 1
            self.outage_refused += 1
            return False
        self.sent += 1
        self._enqueue(now, data)
        if self.duplicate_p and self._rng.random() < self.duplicate_p:
            self.duplicated += 1
            self._enqueue(now, data)
        return True

    def corrupt_next(self, n: int = 1) -> None:
        """Arrange for the next ``n`` delivered blobs to arrive torn
        (one byte flipped at a seeded offset).  The chaos harness's
        torn-shipment fault: damage happens on the wire, detection
        happens in the receiver's CRC check, recovery happens via the
        durable-log retransmit."""
        if n < 1:
            raise ValueError("corrupt_next needs n >= 1")
        self._corrupt_pending += n

    def _enqueue(self, now: float, data: bytes) -> None:
        deliver_at = now + self.lag_s
        if self.jitter_s:
            deliver_at += self._rng.uniform(0.0, self.jitter_s)
        self._tie += 1
        heappush(self._in_flight, (deliver_at, self._tie, data))

    def deliver(self, now: float) -> List[bytes]:
        """Pop every blob whose delivery time has arrived, in delivery
        order (``deliver(float('inf'))`` drains the link)."""
        out: List[bytes] = []
        while self._in_flight and self._in_flight[0][0] <= now:
            data = heappop(self._in_flight)[2]
            if self._corrupt_pending > 0:
                self._corrupt_pending -= 1
                self.corrupted += 1
                torn = bytearray(data)
                torn[self._rng.randrange(len(torn))] ^= 0xFF
                data = bytes(torn)
            out.append(data)
        return out

    def drop_in_flight(self) -> int:
        """Lose everything currently on the wire (a region kill takes
        its half-open connections with it); returns the count dropped."""
        dropped = len(self._in_flight)
        self._in_flight = []
        return dropped

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)


class SegmentShipper:
    """Tails one region's :class:`~repro.soc.store.EventLog` and ships
    new records over a :class:`ShippingChannel`.

    Restart semantics: the only durable state is the log itself.  A
    fresh shipper (cursor 0) re-tails from the beginning and re-ships
    everything -- at-least-once delivery, made exactly-once by the
    receiver's per-region seq dedup.
    """

    def __init__(self, region: str, log: EventLog,
                 channel: ShippingChannel) -> None:
        self.region = region
        self.log = log
        self.channel = channel
        self.shipped_seq = 0
        self.shipments_sent = 0
        self.records_shipped = 0
        self.send_refused = 0

    def pump(self, now: float) -> int:
        """Ship every record past the cursor, at most
        :data:`SHIPMENT_MAX_RECORDS` per blob; returns records shipped.
        On a refused send the cursor stays put -- the log retransmits."""
        if self.channel.in_outage(now):
            # Don't even tail: the link is down and the cursor is safe.
            self.send_refused += 1
            return 0
        tail = self.log.payloads(after_seq=self.shipped_seq)
        shipped = 0
        while chunk := list(islice(tail, SHIPMENT_MAX_RECORDS)):
            blob = encode_shipment(self.region, chunk[0][0],
                                   [payload for _, payload in chunk])
            if not self.channel.send(now, blob):
                self.send_refused += 1
                break
            self.shipped_seq = chunk[-1][0]
            self.shipments_sent += 1
            self.records_shipped += len(chunk)
            shipped += len(chunk)
        return shipped


# ----------------------------------------------------------------------
# Hub side
# ----------------------------------------------------------------------

class SegmentReceiver:
    """Per-region arrival state inside the hub: seq dedup (duplication +
    re-ship after restart) and an out-of-order buffer keyed by seq so
    only contiguous records ever apply.  The hub decodes, verifies and
    routes each blob before it gets here."""

    def __init__(self, region: str) -> None:
        self.region = region
        self.applied_seq = 0
        self.buffer: Dict[int, LogRecord] = {}
        self.shipments_received = 0
        self.records_received = 0
        self.duplicates = 0

    def receive(self, shipment: Shipment) -> None:
        """Buffer one decoded shipment's new records."""
        self.shipments_received += 1
        for record in shipment.records:
            self.records_received += 1
            if record.seq <= self.applied_seq or record.seq in self.buffer:
                self.duplicates += 1
            else:
                self.buffer[record.seq] = record

    def next_ready(self) -> Optional[LogRecord]:
        """The next contiguous record, if it has arrived."""
        return self.buffer.get(self.applied_seq + 1)


class FederationHub:
    """The fleet-wide view: replica engines per (region, shard), one
    global merger, one incident tracker, and the watermark gate.

    ``regions`` fixes the deterministic region order used to break
    ``dispatch_t`` ties (regions pump on the same tick grid, so ties are
    the common case, not the corner case).  ``num_shards`` and the
    correlation parameters must match the regions' own configuration --
    :meth:`SecurityOperationsCenter.federation_profile` exports exactly
    this shape (:meth:`from_profile` consumes it).

    ``staleness_budget_s`` picks the partition behavior:

    - ``None`` (default, *strict*): the watermark gate stalls the global
      merge until order is provable.  Verdicts are final the moment
      they fire.
    - a number of seconds (*optimistic*): when *every* region blocking
      the gate has made no watermark progress for longer than
      ``staleness_budget_s``, the hub freezes the reconciliation base
      and keeps applying the healthy regions' records provisionally (an
      **episode**).  Verdicts fired inside an episode open
      ``provisional=True`` incidents and count in
      ``provisional_verdicts``.  Once every live region's
      watermark provably passes the episode's records (or at
      :meth:`finalize`), :meth:`_reconcile` replays the episode suffix
      in canonical order into a shadow built from the frozen base,
      classifies each provisional verdict (confirm / amend / retract --
      :class:`~repro.soc.incident.Amendment`), and swaps the shadow in:
      the analytic snapshot afterwards is byte-identical to the strict
      gate's.
    """

    def __init__(self, regions: Sequence[str], num_shards: int = 1, *,
                 window_s: float = 8.0, k: int = 3,
                 dedup_window_s: float = 4.0,
                 max_lateness_s: float = 2.0,
                 staleness_budget_s: Optional[float] = None) -> None:
        if not regions:
            raise ValueError("a federation needs at least one region")
        if len(set(regions)) != len(regions):
            raise ValueError("region names must be unique")
        if staleness_budget_s is not None and staleness_budget_s < 0:
            raise ValueError("staleness_budget_s must be >= 0")
        self.regions: List[str] = list(regions)
        self.num_shards = num_shards
        self.staleness_budget_s = staleness_budget_s
        self.receivers: Dict[str, SegmentReceiver] = {
            r: SegmentReceiver(r) for r in self.regions}
        #: Replica engines flattened region-major (engine
        #: ``region_index * num_shards + shard``), the global merger and
        #: the tracker.  Swapped wholesale at reconciliation.
        self.state = AnalyticState.fresh(
            len(self.regions) * num_shards, window_s=window_s, k=k,
            dedup_window_s=dedup_window_s, max_lateness_s=max_lateness_s)
        self._region_index: Dict[str, int] = {
            r: i for i, r in enumerate(self.regions)}
        self._frontier: Dict[str, float] = {r: _NEG_INF for r in self.regions}
        self._finalized = False
        #: (applied_at_sim_time, detection) per fleet-wide verdict --
        #: E18's latency sample stream.
        self.detection_log: List[Tuple[float, CampaignDetection]] = []
        self.records_applied = 0
        self.pumps_applied = 0
        self.stalled_rounds = 0
        #: Blobs refused as torn (framing/CRC/consistency) or unroutable
        #: (unknown region or shard) -- transport damage is never silent.
        self.corrupt_rejected = 0
        # --- partition observability + optimistic episodes ------------
        # _bound[r]: dispatch_t of r's last *contiguously known* record
        # (applied or buffered without gaps) -- the best provable lower
        # bound on where r's stream stands.  _known_seq caches the scan
        # cursor so the contiguity walk is incremental, not quadratic.
        self._now = _NEG_INF
        self._bound: Dict[str, float] = {r: _NEG_INF for r in self.regions}
        self._known_seq: Dict[str, int] = {r: 0 for r in self.regions}
        self._last_progress: Dict[str, float] = {}
        self._dead: Set[str] = set()
        self._episode_active = False
        self._base: Optional[Dict[str, object]] = None
        self._suffix: List[Tuple[str, LogRecord]] = []
        self._provisional: List[Tuple[float, CampaignDetection]] = []
        self._hi_by_region: Dict[str, Tuple[float, int]] = {}
        #: Every reconciliation outcome, in order: the one amendment
        #: journal (the swapped-in trackers keep none).
        self.amendments: List[Amendment] = []
        self.episodes = 0
        self.reconciliations = 0
        self.provisional_verdicts = 0
        self.amendments_confirmed = 0
        self.amendments_amended = 0
        self.amendments_retracted = 0
        self.late_verdicts = 0
        self.dead_rejected = 0
        self.dead_dropped = 0

    @property
    def merger(self) -> GlobalCampaignMerger:
        return self.state.merger

    @property
    def tracker(self) -> IncidentTracker:
        return self.state.tracker

    @classmethod
    def from_profile(cls, regions: Sequence[str],
                     profile: Dict[str, object],
                     staleness_budget_s: Optional[float] = None,
                     ) -> "FederationHub":
        """Build a hub from one region's
        :meth:`~repro.soc.center.SecurityOperationsCenter.\
federation_profile` (regions in a federation share a configuration).
        ``staleness_budget_s`` is hub-local (how *this* process rides
        out partitions), not part of the shared profile."""
        return cls(regions, int(profile["num_shards"]),
                   window_s=profile["window_s"], k=profile["k"],
                   dedup_window_s=profile["dedup_window_s"],
                   max_lateness_s=profile["max_lateness_s"],
                   staleness_budget_s=staleness_budget_s)

    # ------------------------------------------------------------------
    # Arrival + watermark-gated apply
    # ------------------------------------------------------------------
    def receive(self, data: bytes) -> bool:
        """Decode one wire blob once and hand the :class:`Shipment` to
        its region's receiver.  ``False`` if it was refused: torn or
        unroutable -- an unknown region, or a batch of a shard outside
        ``range(num_shards)`` (counted in ``corrupt_rejected``) -- or
        from a declared-dead region (``dead_rejected``).  A refused blob
        is never half-applied."""
        try:
            shipment = decode_shipment(data)
        except CorruptRecord:
            self.corrupt_rejected += 1
            return False
        receiver = self.receivers.get(shipment.region)
        if receiver is None or any(
                not 0 <= record.shard < self.num_shards
                for record in shipment.records):
            self.corrupt_rejected += 1
            return False
        if shipment.region in self._dead:
            # A declared-dead region's stream is truncated: late blobs
            # are refused whole so its applied prefix stays frozen.
            self.dead_rejected += 1
            return False
        receiver.receive(shipment)
        return True

    def _note_progress(self) -> None:
        """Advance each region's contiguous-knowledge bound and stamp
        progress time.  ``_known_seq`` remembers how far the contiguity
        walk got, so each buffered record is scanned once ever."""
        for region in self.regions:
            if region in self._dead:
                continue
            receiver = self.receivers[region]
            if region not in self._last_progress:
                self._last_progress[region] = self._now
            seq = max(self._known_seq[region], receiver.applied_seq)
            while seq + 1 in receiver.buffer:
                seq += 1
            self._known_seq[region] = seq
            if seq > receiver.applied_seq:
                bound = receiver.buffer[seq].dispatch_t
            else:
                bound = self._frontier[region]
            if bound > self._bound[region]:
                self._bound[region] = bound
                self._last_progress[region] = self._now

    def stall_age_s(self, region: str) -> float:
        """Seconds since this region's watermark bound last advanced
        (0.0 until the hub has observed any time at all)."""
        if self._now == _NEG_INF or region in self._dead:
            return 0.0
        return max(0.0, self._now - self._last_progress.get(region, self._now))

    def advance(self, now: float) -> int:
        """Apply every *provably ordered* buffered record; returns the
        count applied.

        A candidate (the next contiguous record of some region) applies
        only when no other region can still produce a record sorting
        before it under the global ``(dispatch_t, region_order, seq)``
        order.  Regions with a ready candidate are compared directly;
        regions without one are bounded by their frontier -- the
        ``dispatch_t`` of their last applied record, below which their
        log (non-decreasing ``dispatch_t``) can never go back.  A tie at
        the frontier must stall: an announced frontier ``t`` still
        admits a future record *at* ``t``.

        With a ``staleness_budget_s``, a stall where every blocking
        region has exceeded it opens an episode instead of
        stalling: the base state is frozen and records apply
        provisionally (unordered across regions, still seq-ordered
        within each).  The episode closes via :meth:`_reconcile` once
        every live region's bound provably passes the episode's records.
        """
        self._now = max(self._now, now)
        self._note_progress()
        applied = 0
        while True:
            best_key: Optional[Tuple[float, int]] = None
            best_receiver: Optional[SegmentReceiver] = None
            best_record: Optional[LogRecord] = None
            ready: List[bool] = []
            for index, region in enumerate(self.regions):
                record = self.receivers[region].next_ready()
                ready.append(record is not None)
                if record is None:
                    continue
                key = (record.dispatch_t, index)
                if best_key is None or key < best_key:
                    best_key = key
                    best_receiver = self.receivers[region]
                    best_record = record
            if best_record is None:
                break
            if not self._finalized and not self._episode_active:
                blockers: List[str] = []
                for index, region in enumerate(self.regions):
                    if ready[index] or region in self._dead:
                        continue  # lost the key compare / can't speak
                    # Worst case: this region's next record arrives at
                    # exactly its frontier time.
                    if (self._frontier[region], index) <= best_key:
                        blockers.append(region)
                if blockers:
                    if (self.staleness_budget_s is not None
                            and all(self.stall_age_s(r)
                                    > self.staleness_budget_s
                                    for r in blockers)):
                        self._begin_episode()
                    else:
                        self.stalled_rounds += 1
                        break
            self._pop_and_apply(now, best_receiver, best_record)
            applied += 1
        if self._episode_active and (self._finalized
                                     or self._reconcile_ready()):
            self._reconcile(self._now)
        return applied

    def _pop_and_apply(self, now: float, receiver: SegmentReceiver,
                       record: LogRecord) -> None:
        receiver.applied_seq = record.seq
        del receiver.buffer[record.seq]
        region = receiver.region
        self._frontier[region] = record.dispatch_t
        if record.dispatch_t > self._bound[region]:
            self._bound[region] = record.dispatch_t
        self.records_applied += 1
        if record.kind != "batch":
            self.pumps_applied += 1
        open_incident = self.state.tracker.open_from_detection
        if self._episode_active:
            open_incident = partial(open_incident, provisional=True)
        new_detections = self.state.apply(
            self._region_index[region] * self.num_shards + record.shard,
            record, open_incident)
        if self._episode_active:
            self._suffix.append((region, record))
            key = (record.dispatch_t, self._region_index[region])
            prior = self._hi_by_region.get(region)
            if prior is None or key > prior:
                self._hi_by_region[region] = key
        for detection in new_detections:
            self.detection_log.append((now, detection))
            if self._episode_active:
                self.provisional_verdicts += 1
                self._provisional.append((now, detection))

    # ------------------------------------------------------------------
    # Optimistic episodes
    # ------------------------------------------------------------------
    def _begin_episode(self) -> None:
        """Freeze the reconciliation base: the analytic state at the
        last provably-ordered point.  Everything applied from here until
        :meth:`_reconcile` is provisional."""
        self._episode_active = True
        self.episodes += 1
        self._base = {**self.state.snapshot(),
                      "detection_log_len": len(self.detection_log)}
        self._suffix = []
        self._provisional = []
        self._hi_by_region = {}

    def _reconcile_ready(self) -> bool:
        """True once no live region can still produce a record sorting
        before any record already applied provisionally: for every live
        region, its worst-case next key ``(bound, index)`` must beat
        every *other* region's highest suffix key.  (Its own suffix is
        always safe -- within a region, applies stay in seq order.)"""
        if not self._suffix:
            return True
        for region in self.regions:
            if region in self._dead:
                continue
            bound_key = (self._bound[region], self._region_index[region])
            for other, hi_key in self._hi_by_region.items():
                if other != region and bound_key < hi_key:
                    return False
        return True

    def _reconcile(self, now: float) -> None:
        """Close the episode deterministically.

        Replay the episode suffix in canonical ``(dispatch_t, region,
        seq)`` order into a shadow built from the frozen base -- exactly
        the sequence the strict gate would have applied -- then classify
        every provisional verdict against the shadow's (confirm: the
        identical detection fired; amend: same signature, different
        spread/timing; retract: it never fired), journal the
        :class:`~repro.soc.incident.Amendment` for each, rebuild the
        detection log (confirmed/amended verdicts keep their *early*
        provisional entry as-is -- the log journals what was reported
        when, which is the availability win E18 measures, while the
        amendment carries the correction and the swapped-in state
        carries the canonical detection; retracted entries drop;
        shadow-only verdicts land now as ``late``), and swap the shadow
        in.  Frontiers and applied seqs need no repair: per-region
        applies always happen in seq order, so they already match the
        strict twin.
        """
        self.reconciliations += 1
        order = self._region_index
        suffix = sorted(
            self._suffix,
            key=lambda item: (item[1].dispatch_t, order[item[0]],
                              item[1].seq))
        shadow = AnalyticState.from_snapshot(self._base)
        open_incident = shadow.tracker.open_from_detection
        shadow_detections: List[CampaignDetection] = []
        for region, record in suffix:
            shadow_detections.extend(shadow.apply(
                order[region] * self.num_shards + record.shard, record,
                open_incident))
        shadow_by_sig = {d.signature: d for d in shadow_detections}
        old_tracker = self.state.tracker
        fresh: List[Amendment] = []
        kept: List[Tuple[float, CampaignDetection]] = []
        for t_prov, d_prov in self._provisional:
            confirmed = shadow_by_sig.pop(d_prov.signature, None)
            if confirmed is None:
                self.amendments_retracted += 1
                incident = old_tracker.incident_for(d_prov.signature)
                fresh.append(Amendment(
                    kind="retract", signature=d_prov.signature, t=now,
                    incident_id=(incident.incident_id
                                 if incident else None),
                    vehicles_removed=len(d_prov.vehicles)))
                continue
            kept.append((t_prov, d_prov))
            shadow_incident = shadow.tracker.incident_for(d_prov.signature)
            incident_id = (shadow_incident.incident_id
                           if shadow_incident else None)
            if confirmed == d_prov:
                self.amendments_confirmed += 1
                fresh.append(Amendment(
                    kind="confirm", signature=d_prov.signature, t=now,
                    incident_id=incident_id))
            else:
                self.amendments_amended += 1
                prov_vehicles = set(d_prov.vehicles)
                true_vehicles = set(confirmed.vehicles)
                fresh.append(Amendment(
                    kind="amend", signature=d_prov.signature, t=now,
                    incident_id=incident_id,
                    vehicles_added=len(true_vehicles - prov_vehicles),
                    vehicles_removed=len(prov_vehicles - true_vehicles)))
        late = [(now, d) for d in shadow_detections
                if d.signature in shadow_by_sig]
        self.late_verdicts += len(late)
        head = self.detection_log[:self._base["detection_log_len"]]
        self.detection_log = head + kept + late
        self.amendments.extend(fresh)
        self.state = shadow
        self._episode_active = False
        self._base = None
        self._suffix = []
        self._provisional = []
        self._hi_by_region = {}

    def declare_dead(self, region: str) -> int:
        """Administratively remove a region from the federation: its
        stream is truncated at the applied prefix, buffered gap records
        are discarded (counted in ``dead_dropped``), future blobs are
        refused, and the gate stops waiting on it -- which also lets an
        open episode reconcile without the corpse.  Returns the number
        of buffered records discarded."""
        if region not in self._region_index:
            raise ValueError(f"unknown region {region!r}")
        if region in self._dead:
            return 0
        self._dead.add(region)
        receiver = self.receivers[region]
        dropped = len(receiver.buffer)
        receiver.buffer.clear()
        self._known_seq[region] = receiver.applied_seq
        self.dead_dropped += dropped
        return dropped

    @property
    def dead_regions(self) -> Set[str]:
        return set(self._dead)

    @property
    def episode_active(self) -> bool:
        return self._episode_active

    def finalize(self, now: float) -> int:
        """End-of-stream flush: every region's log is known complete, so
        frontier gating is lifted and all buffered records drain in
        global sort order; an open episode reconciles afterwards.
        Returns the records applied."""
        self._finalized = True
        return self.advance(now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def flagged_signatures(self) -> Set[str]:
        return set(self.merger.flagged_signatures)

    def unapplied(self) -> int:
        """Records received but not yet applied (in-order gaps included)."""
        return sum(len(r.buffer) for r in self.receivers.values())

    def analytics_snapshot(self) -> Dict[str, object]:
        """Canonical dump of the hub's analytic state.  Two hubs that
        applied the same record sequence produce byte-identical dumps
        under ``json.dumps(..., sort_keys=True)`` -- transport statistics
        (duplicates, corrupt counts) are deliberately excluded because
        they describe the journey, not the state."""
        state = self.state.snapshot()
        engines, n = state["engines"], self.num_shards
        return {
            "regions": list(self.regions),
            "num_shards": n,
            "engines": {r: engines[i * n:(i + 1) * n]
                        for i, r in enumerate(self.regions)},
            "merger": state["merger"],
            "tracker": state["tracker"],
            "frontiers": {r: enc_time(self._frontier[r])
                          for r in self.regions},
            "applied_seq": {r: self.receivers[r].applied_seq
                            for r in self.regions},
        }

    def watermark_lag_s(self, region: str) -> float:
        """How far this region's contiguous-knowledge bound trails the
        most-advanced live region's (0.0 when nothing is comparable yet
        or the region is dead).  A growing lag is a brewing partition
        *before* the gate visibly stalls."""
        if region in self._dead:
            return 0.0
        bounds = [self._bound[r] for r in self.regions
                  if r not in self._dead and self._bound[r] != _NEG_INF]
        if not bounds or self._bound[region] == _NEG_INF:
            return 0.0
        return max(0.0, max(bounds) - self._bound[region])

    def metrics(self) -> Dict[str, float]:
        out = {
            "regions": float(len(self.regions)),
            "records_applied": float(self.records_applied),
            "pumps_applied": float(self.pumps_applied),
            "stalled_rounds": float(self.stalled_rounds),
            "campaigns_flagged": float(len(self.merger.flagged_signatures)),
            "incidents_open": float(len(self.tracker.incidents)),
            "receiver_duplicates": float(
                sum(r.duplicates for r in self.receivers.values())),
            "corrupt_rejected": float(self.corrupt_rejected),
            "episodes": float(self.episodes),
            "reconciliations": float(self.reconciliations),
            "episode_active": float(self._episode_active),
            "provisional_verdicts": float(self.provisional_verdicts),
            "amendments_confirmed": float(self.amendments_confirmed),
            "amendments_amended": float(self.amendments_amended),
            "amendments_retracted": float(self.amendments_retracted),
            "late_verdicts": float(self.late_verdicts),
            "dead_regions": float(len(self._dead)),
            "dead_rejected": float(self.dead_rejected),
            "dead_dropped": float(self.dead_dropped),
        }
        stall_ages = []
        lags = []
        for region in self.regions:
            age = self.stall_age_s(region)
            lag = self.watermark_lag_s(region)
            out[f"stall_age_s[{region}]"] = age
            out[f"watermark_lag_s[{region}]"] = lag
            stall_ages.append(age)
            lags.append(lag)
        out["stall_age_max_s"] = max(stall_ages) if stall_ages else 0.0
        out["watermark_lag_max_s"] = max(lags) if lags else 0.0
        return out
