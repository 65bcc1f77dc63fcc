"""Sliding-window cross-vehicle correlation.

The paper's §4.2 class-break argument: because a vehicle class shares
software, keys, and configurations, one working exploit recurs across
the fleet with the *same signature*.  Single-vehicle detection cannot
see that; a backend watching all vehicles can.  The engine here flags a
**campaign** when at least ``k`` *distinct* vehicles report the same
signature within a ``window``-second span.

Stream hygiene, in order of application:

1. **duplicate ids** -- at-least-once transports redeliver; an
   ``event_id`` is only ever counted once;
2. **lateness bound** -- events older than ``watermark - max_lateness``
   are dropped (out-of-order arrival *within* the bound is fine and
   still correlates);
3. **per-vehicle dedup** -- one noisy vehicle repeating a signature
   inside ``dedup_window`` seconds collapses to a single observation, so
   a single chatty ECU can never fake a fleet campaign.

Window semantics are **closed**: two events exactly ``window`` seconds
apart co-occur; ``window + ε`` apart do not.  (Pinned by the property
tests in ``tests/test_soc.py``.)

Fleet-scale fast path (the 10^7-vehicle E17 cell):

- per-signature state is **incremental** -- a min-heap of in-window
  entries, a running distinct-vehicle count, and a monotonically
  tracked newest timestamp -- so one observe costs O(log w) in the
  window size instead of the O(w) set-rebuild + max()-rescan the
  :class:`ReferenceCorrelationEngine` (the original implementation,
  kept as the executable spec) pays per event;
- :meth:`CorrelationEngine.observe_batch` consumes a whole dispatched
  batch (one batch-sink call) in the engine's one observe loop, with
  its state hoisted into locals; :meth:`~CorrelationEngine.observe` is
  a batch of one through the same loop;
- dedup/duplicate bookkeeping is **bounded**: ids and per-vehicle
  timestamps older than the watermark minus the retention horizon are
  evicted, so memory is O(events in horizon), not O(events ever);
- :class:`GlobalCampaignMerger` stitches shard-local engines into
  fleet-wide campaigns, which makes a federation hub (one signature
  spread over many regions' engines) detect exactly what a single
  global engine would, at a cost set by the signatures that changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from collections import deque

from repro.core.safety import Asil
from repro.soc.events import SecurityEvent


def k_for_fleet_size(n_vehicles: int, base_k: int = 3,
                     base_fleet: int = 1_000_000) -> int:
    """Distinct-vehicle threshold scaled to fleet size: ``base_k`` up to
    ``base_fleet`` vehicles, +1 per decade beyond.

    ``k`` is a noise floor, and the noise grows with the fleet: benign
    telemetry draws signatures from a fixed catalog, so the expected
    number of *distinct* vehicles hitting any one benign signature inside
    a correlation window scales linearly with fleet size.  A threshold
    tuned at 10^6 (k=3) is crossed by pure chance at 10^8 -- E17's XL
    cell measured precision 0.6 there, every miss a benign signature that
    three unrelated vehicles happened to share in-window.  Per-signature
    co-occurrence counts are Poisson-ish, so holding the false-campaign
    rate roughly constant needs ``k`` to grow with ``log(fleet)``, not
    with the fleet: one extra distinct-vehicle demand per decade.

    Real campaigns clear the raised bar by construction -- a §4.2
    class-break recurs across the fleet's shared software, so planted
    prevalences put orders of magnitude more than ``k`` vehicles in
    window (E17's XL regression pins precision >= 0.9 at recall 1.0).
    """
    if n_vehicles < 1:
        raise ValueError("n_vehicles must be >= 1")
    k = base_k
    scale = base_fleet
    while n_vehicles > scale * 3:  # past the decade's geometric midpoint
        k += 1
        scale *= 10
    return k


@dataclass(frozen=True)
class CampaignDetection:
    """The correlator's verdict: one signature active fleet-wide."""

    signature: str
    detect_time: float          # time of the event that tripped the rule
    first_time: float           # earliest in-window observation
    vehicles: Tuple[str, ...]   # distinct vehicles at detection, sorted
    window_s: float
    k: int

    @property
    def spread(self) -> int:
        return len(self.vehicles)

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe form (snapshot/restore round-trips it exactly)."""
        return {
            "signature": self.signature,
            "detect_time": self.detect_time,
            "first_time": self.first_time,
            "vehicles": list(self.vehicles),
            "window_s": self.window_s,
            "k": self.k,
        }

    @classmethod
    def from_dict(cls, obj: Dict[str, object]) -> "CampaignDetection":
        return cls(
            signature=obj["signature"],
            detect_time=obj["detect_time"],
            first_time=obj["first_time"],
            vehicles=tuple(obj["vehicles"]),
            window_s=obj["window_s"],
            k=obj["k"],
        )


#: float("-inf") is not valid strict JSON; snapshots encode it as None.
def enc_time(t: float) -> Optional[float]:
    return None if t == float("-inf") else t


def dec_time(t: Optional[float]) -> float:
    return float("-inf") if t is None else t


class _SignatureWindow:
    """Incremental per-signature window state.

    ``heap`` holds the live (time, vehicle) entries as a min-heap, so
    expiry is pop-from-the-top and ``first_time`` is ``heap[0]``;
    ``counts`` tracks live entries per vehicle, so the distinct-vehicle
    cardinality is ``len(counts)`` with no per-event set rebuild;
    ``newest`` is tracked monotonically -- pruning can only remove
    entries strictly older than ``newest - window``, never the maximum
    itself, so a running max is exact.
    """

    __slots__ = ("heap", "counts", "newest")

    def __init__(self) -> None:
        self.heap: List[Tuple[float, str]] = []
        self.counts: Dict[str, int] = {}
        self.newest = float("-inf")


class CorrelationEngine:
    """Deduplicate per-vehicle noise; detect cross-fleet campaigns.

    Equivalent to :class:`ReferenceCorrelationEngine` (the property
    tests machine-check it) but O(log w) per event and bounded-memory:

    - ``_seen_ids`` and ``_last_by_key`` map to the *time* of the entry
      and are swept once the watermark has advanced past the retention
      horizon ``max_lateness_s + dedup_window_s``.  Inside that horizon
      dedup/duplicate semantics are bit-identical to the reference;
      beyond it a redelivered id can only belong to an event that the
      lateness bound drops anyway (it is then attributed to
      ``late_dropped`` instead of ``duplicate_ids`` -- same drop, same
      hygiene, bounded ledger).
    - signature windows whose newest entry can never co-occur with any
      future admissible event (``newest < watermark - max_lateness -
      window``) are dropped whole.
    """

    def __init__(
        self,
        window_s: float = 8.0,
        k: int = 3,
        dedup_window_s: float = 4.0,
        max_lateness_s: float = 2.0,
        min_severity: Asil = Asil.B,
    ) -> None:
        if k < 2:
            raise ValueError("a campaign needs k >= 2 vehicles")
        if window_s <= 0 or dedup_window_s < 0 or max_lateness_s < 0:
            raise ValueError("windows must be positive")
        self.window_s = window_s
        self.k = k
        self.dedup_window_s = dedup_window_s
        self.max_lateness_s = max_lateness_s
        self.min_severity = min_severity

        # Retention horizon for the dedup/duplicate ledgers.  The sum
        # (not the max) is the tight bound: an admissible event has
        # time >= watermark - max_lateness, so a per-vehicle timestamp
        # older than watermark - (max_lateness + dedup_window) can never
        # again satisfy |t_new - t_old| <= dedup_window.
        self._retention_s = max_lateness_s + dedup_window_s

        self._seen_ids: Dict[str, float] = {}
        self._last_by_key: Dict[Tuple[str, str], float] = {}
        self._by_signature: Dict[str, _SignatureWindow] = {}
        self._flagged: Dict[str, CampaignDetection] = {}
        self._campaign_vehicles: Dict[str, Set[str]] = {}
        self._dirty: Set[str] = set()          # signatures changed since pop_dirty
        self._last_sweep_wm = float("-inf")

        self.watermark = float("-inf")
        self.observed = 0
        self.duplicate_ids = 0
        self.late_dropped = 0
        self.low_severity_ignored = 0
        self.deduped = 0
        self.ids_evicted = 0
        self.keys_evicted = 0
        self.windows_evicted = 0
        self.detections: List[CampaignDetection] = []

    # ------------------------------------------------------------------
    def observe(self, event: SecurityEvent) -> Optional[CampaignDetection]:
        """Feed one event; returns a detection the first time a signature
        crosses the k-vehicles-in-window threshold."""
        return self._observe_events((event,))[0]

    def observe_batch(
        self, events: Sequence[SecurityEvent]
    ) -> List[Optional[CampaignDetection]]:
        """Feed a dispatched batch (one batch-sink call); returns
        per-event verdicts, exactly as :meth:`observe` would one by one."""
        return self._observe_events(events)

    def _observe_events(
        self, events: Sequence[SecurityEvent]
    ) -> List[Optional[CampaignDetection]]:
        """The one observe loop behind :meth:`observe` (a batch of one)
        and :meth:`observe_batch`, with the engine's state hoisted into
        locals once per call."""
        verdicts: List[Optional[CampaignDetection]] = [None] * len(events)
        seen = self._seen_ids
        last_by_key = self._last_by_key
        windows = self._by_signature
        flagged = self._flagged
        campaigns = self._campaign_vehicles
        mark_dirty = self._dirty.add
        min_severity = self.min_severity
        max_lateness = self.max_lateness_s
        dedup_window = self.dedup_window_s
        window_s = self.window_s
        k = self.k
        watermark = self.watermark
        floor = watermark - max_lateness
        duplicates = late = low = deduped = 0
        for i, (eid, t, vehicle, _, sig, severity, _) in enumerate(events):
            if eid in seen:
                duplicates += 1
                continue
            seen[eid] = t
            if t < floor:
                late += 1
                continue
            if t > watermark:
                watermark = t
                floor = t - max_lateness
                if t - self._last_sweep_wm >= self._retention_s:
                    self.watermark = t
                    self._sweep()
            # Only actionable telemetry (>= min_severity) can seed a
            # campaign window -- QM/A observability noise is counted and
            # discarded, so chatter can never manufacture a fleet incident.
            if severity < min_severity:
                low += 1
                continue
            key = (vehicle, sig)
            last = last_by_key.get(key)
            if last is not None and abs(t - last) <= dedup_window:
                deduped += 1
                if t > last:
                    last_by_key[key] = t
                continue
            last_by_key[key] = t
            mark_dirty(sig)
            if sig in flagged:
                # Campaign already open: track spread, don't re-fire.
                campaigns[sig].add(vehicle)
                continue

            w = windows.get(sig)
            if w is None:
                w = windows[sig] = _SignatureWindow()
            heap = w.heap
            counts = w.counts
            heappush(heap, (t, vehicle))
            counts[vehicle] = counts.get(vehicle, 0) + 1
            if t > w.newest:
                w.newest = t
            # Closed window: entries exactly window_s old still co-occur;
            # strictly older ones expire.  The heap's top is always the
            # oldest live entry, so expiry never rescans the window.
            cutoff = w.newest - window_s
            while heap[0][0] < cutoff:
                _, gone = heappop(heap)
                c = counts[gone] - 1
                if c:
                    counts[gone] = c
                else:
                    del counts[gone]
            if len(counts) >= k:
                detection = verdicts[i] = CampaignDetection(
                    sig, t, heap[0][0], tuple(sorted(counts)), window_s, k)
                flagged[sig] = detection
                campaigns[sig] = set(counts)
                del windows[sig]
                self.detections.append(detection)

        self.watermark = watermark
        self.observed += len(events)
        self.duplicate_ids += duplicates
        self.late_dropped += late
        self.low_severity_ignored += low
        self.deduped += deduped
        return verdicts

    def _sweep(self) -> None:
        """Evict dedup/duplicate ledger entries past the retention
        horizon and signature windows that can never fire again.

        Amortized O(1) per observe: a sweep runs only once per
        ``_retention_s`` of watermark advance, and an entry is examined
        by at most two sweeps before eviction.
        """
        wm = self.watermark
        self._last_sweep_wm = wm
        horizon = wm - self._retention_s
        seen = self._seen_ids
        stale_ids = [eid for eid, t in seen.items() if t < horizon]
        for eid in stale_ids:
            del seen[eid]
        self.ids_evicted += len(stale_ids)
        last = self._last_by_key
        stale_keys = [key for key, t in last.items() if t < horizon]
        for key in stale_keys:
            del last[key]
        self.keys_evicted += len(stale_keys)
        # A window whose newest entry is older than this can never share
        # a closed window with any future admissible (in-lateness) event,
        # so dropping it whole is invisible to detection semantics.
        window_horizon = wm - self.max_lateness_s - self.window_s
        windows = self._by_signature
        stale_sigs = [s for s, w in windows.items() if w.newest < window_horizon]
        for s in stale_sigs:
            del windows[s]
        self.windows_evicted += len(stale_sigs)

    # ------------------------------------------------------------------
    # Snapshot / restore (the durable-store recovery contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Canonical JSON-safe dump of *all* correlator state.

        Canonical means deterministically ordered (sets and dicts are
        serialized sorted, heaps in sorted order -- equal-element heap
        layout is unobservable, so a sorted list restores identical
        behavior), which makes two semantically equal engines produce
        byte-identical snapshots: the property the crash-recovery
        differential tests compare on.  ``detections`` keeps its append
        order -- :class:`GlobalCampaignMerger` cursors index into it.
        """
        return {
            "config": {
                "window_s": self.window_s,
                "k": self.k,
                "dedup_window_s": self.dedup_window_s,
                "max_lateness_s": self.max_lateness_s,
                "min_severity": int(self.min_severity),
            },
            "watermark": enc_time(self.watermark),
            "last_sweep_wm": enc_time(self._last_sweep_wm),
            "seen_ids": sorted([eid, t] for eid, t in self._seen_ids.items()),
            "last_by_key": sorted(
                [v, s, t] for (v, s), t in self._last_by_key.items()),
            "windows": sorted(
                [sig, {"heap": sorted([t, v] for t, v in w.heap),
                       "counts": sorted([v, c] for v, c in w.counts.items()),
                       "newest": enc_time(w.newest)}]
                for sig, w in self._by_signature.items()),
            "flagged": [self._flagged[s].as_dict()
                        for s in sorted(self._flagged)],
            "campaign_vehicles": sorted(
                [sig, sorted(vehicles)]
                for sig, vehicles in self._campaign_vehicles.items()),
            "dirty": sorted(self._dirty),
            "detections": [d.as_dict() for d in self.detections],
            "counters": {
                "observed": self.observed,
                "duplicate_ids": self.duplicate_ids,
                "late_dropped": self.late_dropped,
                "low_severity_ignored": self.low_severity_ignored,
                "deduped": self.deduped,
                "ids_evicted": self.ids_evicted,
                "keys_evicted": self.keys_evicted,
                "windows_evicted": self.windows_evicted,
            },
        }

    @classmethod
    def from_snapshot(cls, state: Dict[str, object]) -> "CorrelationEngine":
        """Rebuild an engine whose future behavior is indistinguishable
        from the snapshotted one (pinned by the recovery differentials)."""
        cfg = state["config"]
        engine = cls(
            window_s=cfg["window_s"], k=cfg["k"],
            dedup_window_s=cfg["dedup_window_s"],
            max_lateness_s=cfg["max_lateness_s"],
            min_severity=Asil(cfg["min_severity"]),
        )
        engine.watermark = dec_time(state["watermark"])
        engine._last_sweep_wm = dec_time(state["last_sweep_wm"])
        engine._seen_ids = {eid: t for eid, t in state["seen_ids"]}
        engine._last_by_key = {(v, s): t for v, s, t in state["last_by_key"]}
        for sig, wobj in state["windows"]:
            w = _SignatureWindow()
            # A sorted list satisfies the heap invariant as-is.
            w.heap = [(t, v) for t, v in wobj["heap"]]
            w.counts = {v: c for v, c in wobj["counts"]}
            w.newest = dec_time(wobj["newest"])
            engine._by_signature[sig] = w
        for dobj in state["flagged"]:
            detection = CampaignDetection.from_dict(dobj)
            engine._flagged[detection.signature] = detection
        engine._campaign_vehicles = {
            sig: set(vehicles)
            for sig, vehicles in state["campaign_vehicles"]}
        engine._dirty = set(state["dirty"])
        engine.detections = [CampaignDetection.from_dict(d)
                             for d in state["detections"]]
        counters = state["counters"]
        engine.observed = counters["observed"]
        engine.duplicate_ids = counters["duplicate_ids"]
        engine.late_dropped = counters["late_dropped"]
        engine.low_severity_ignored = counters["low_severity_ignored"]
        engine.deduped = counters["deduped"]
        engine.ids_evicted = counters["ids_evicted"]
        engine.keys_evicted = counters["keys_evicted"]
        engine.windows_evicted = counters["windows_evicted"]
        return engine

    # ------------------------------------------------------------------
    # Shard-local merge support
    # ------------------------------------------------------------------
    def windowed(self, signatures: Set[str]) -> Set[str]:
        """Those of ``signatures`` with an un-flagged window live here."""
        return self._by_signature.keys() & signatures

    def vehicles_beyond(self, signature: str, known: Set[str]) -> Set[str]:
        """Vehicles this engine attributes to ``signature`` -- campaign
        and pending window alike -- that ``known`` lacks.  A set
        difference in C: the campaign set is never copied, and a pending
        window holds fewer than ``k`` vehicles."""
        campaign = self._campaign_vehicles.get(signature)
        delta = campaign - known if campaign is not None else set()
        w = self._by_signature.get(signature)
        if w is not None:
            delta |= w.counts.keys() - known
        return delta

    def pop_dirty(self) -> Set[str]:
        """Signatures whose window/campaign state changed since the last
        call -- the merger's incremental work list."""
        dirty = self._dirty
        self._dirty = set()
        return dirty

    def pending_entries(self, signature: str) -> List[Tuple[float, str]]:
        """Live (time, vehicle) entries of an un-flagged window (pruned
        against this engine's own newest; a merger re-prunes globally)."""
        w = self._by_signature.get(signature)
        if w is None:
            return []
        return list(w.heap)

    def adopt_campaign(self, detection: CampaignDetection) -> None:
        """Accept a fleet-wide verdict from a merger: flag the signature
        locally so subsequent events attribute spread exactly, and fold
        any pending window into the campaign's vehicle set."""
        sig = detection.signature
        if sig in self._flagged:
            return
        self._flagged[sig] = detection
        vehicles = self._campaign_vehicles.setdefault(sig, set())
        w = self._by_signature.pop(sig, None)
        if w is not None:
            vehicles.update(w.counts)
        self._dirty.add(sig)

    # ------------------------------------------------------------------
    @property
    def flagged_signatures(self) -> Tuple[str, ...]:
        return tuple(self._flagged)

    def campaign_vehicles(self, signature: str) -> Set[str]:
        """All vehicles attributed to a flagged campaign so far."""
        return set(self._campaign_vehicles.get(signature, set()))

    def metrics(self) -> Dict[str, float]:
        return {
            "observed": float(self.observed),
            "duplicate_ids": float(self.duplicate_ids),
            "late_dropped": float(self.late_dropped),
            "low_severity_ignored": float(self.low_severity_ignored),
            "deduped": float(self.deduped),
            "campaigns_flagged": float(len(self._flagged)),
        }


class ReferenceCorrelationEngine:
    """The original per-event correlator, kept verbatim as the
    executable specification.

    Every observe rebuilds the distinct-vehicle set and rescans the
    window maximum -- O(w) per event -- and its dedup/duplicate ledgers
    grow without bound.  It exists so that (a) the Hypothesis
    differential tests can prove :class:`CorrelationEngine` equivalent
    inside the retention horizon, and (b) the E17 bench can report the
    batched fast path's speedup against the *same-run* per-event
    baseline (``BENCH_E17.json``).
    """

    def __init__(
        self,
        window_s: float = 8.0,
        k: int = 3,
        dedup_window_s: float = 4.0,
        max_lateness_s: float = 2.0,
        min_severity: Asil = Asil.B,
    ) -> None:
        if k < 2:
            raise ValueError("a campaign needs k >= 2 vehicles")
        if window_s <= 0 or dedup_window_s < 0 or max_lateness_s < 0:
            raise ValueError("windows must be positive")
        self.window_s = window_s
        self.k = k
        self.dedup_window_s = dedup_window_s
        self.max_lateness_s = max_lateness_s
        self.min_severity = min_severity

        self._seen_ids: Set[str] = set()
        self._last_by_key: Dict[Tuple[str, str], float] = {}
        self._by_signature: Dict[str, Deque[Tuple[float, str]]] = {}
        self._flagged: Dict[str, CampaignDetection] = {}
        self._campaign_vehicles: Dict[str, Set[str]] = {}

        self.watermark = float("-inf")
        self.observed = 0
        self.duplicate_ids = 0
        self.late_dropped = 0
        self.low_severity_ignored = 0
        self.deduped = 0
        self.detections: List[CampaignDetection] = []

    # ------------------------------------------------------------------
    def observe(self, event: SecurityEvent) -> Optional[CampaignDetection]:
        self.observed += 1

        if event.event_id in self._seen_ids:
            self.duplicate_ids += 1
            return None
        self._seen_ids.add(event.event_id)

        if event.time < self.watermark - self.max_lateness_s:
            self.late_dropped += 1
            return None
        if event.time > self.watermark:
            self.watermark = event.time

        if event.severity < self.min_severity:
            self.low_severity_ignored += 1
            return None

        key = (event.vehicle_id, event.signature)
        last = self._last_by_key.get(key)
        if last is not None and abs(event.time - last) <= self.dedup_window_s:
            self.deduped += 1
            self._last_by_key[key] = max(last, event.time)
            return None
        self._last_by_key[key] = event.time

        if event.signature in self._flagged:
            self._campaign_vehicles[event.signature].add(event.vehicle_id)
            return None

        entries = self._by_signature.setdefault(event.signature, deque())
        entries.append((event.time, event.vehicle_id))
        entries = self._prune(event.signature)

        vehicles = {v for _, v in entries}
        if len(vehicles) < self.k:
            return None

        detection = CampaignDetection(
            signature=event.signature,
            detect_time=event.time,
            first_time=min(t for t, _ in entries),
            vehicles=tuple(sorted(vehicles)),
            window_s=self.window_s,
            k=self.k,
        )
        self._flagged[event.signature] = detection
        self._campaign_vehicles[event.signature] = set(vehicles)
        self._by_signature.pop(event.signature, None)
        self.detections.append(detection)
        return detection

    def _prune(self, signature: str) -> Deque[Tuple[float, str]]:
        entries = self._by_signature[signature]
        if not entries:
            return entries
        newest = max(t for t, _ in entries)
        cutoff = newest - self.window_s
        if any(t < cutoff for t, _ in entries):
            entries = deque((t, v) for t, v in entries if t >= cutoff)
            self._by_signature[signature] = entries
        return entries

    # ------------------------------------------------------------------
    @property
    def flagged_signatures(self) -> Tuple[str, ...]:
        return tuple(self._flagged)

    def campaign_vehicles(self, signature: str) -> Set[str]:
        return set(self._campaign_vehicles.get(signature, set()))

    def metrics(self) -> Dict[str, float]:
        return {
            "observed": float(self.observed),
            "duplicate_ids": float(self.duplicate_ids),
            "late_dropped": float(self.late_dropped),
            "low_severity_ignored": float(self.low_severity_ignored),
            "deduped": float(self.deduped),
            "campaigns_flagged": float(len(self._flagged)),
        }


class GlobalCampaignMerger:
    """Stitches shard-local :class:`CorrelationEngine` state into
    fleet-wide campaigns.

    Within one centre ingest is signature-keyed, so a campaign lives
    wholly on one shard, a local detection *is* the fleet verdict and
    the merger merely forwards it.  At a
    :class:`~repro.soc.federation.FederationHub` the engines are
    regions: one signature's vehicles spread across them and no single
    engine may ever reach ``k``; the merger therefore also combines the
    engines' *pending* window entries -- re-pruned against the global
    newest, same closed-window semantics -- and fires when the
    cross-engine distinct-vehicle union reaches ``k``.

    The merge is incremental: engines mark signatures dirty as their
    state changes (:meth:`CorrelationEngine.pop_dirty`) and expose new
    local detections through a per-engine cursor, so one merge pass
    costs O(changed signatures), not O(all signatures ever seen).  Set
    algebra in C picks the changed signatures that can change an output:
    stitch candidates by one intersection per engine
    (:meth:`CorrelationEngine.windowed`), a campaign's new spread by one
    difference per engine against what the merger already attributed
    (:meth:`CorrelationEngine.vehicles_beyond`), never re-unioned.

    :meth:`merge` returns ``(new_detections, new_vehicles)`` where
    ``new_vehicles`` maps flagged signatures to vehicles attributed
    since the previous merge beyond a verdict's own -- the spread delta
    an incident tracker consumes without rescanning whole campaigns.
    """

    def __init__(self, window_s: float = 8.0, k: int = 3) -> None:
        if k < 2:
            raise ValueError("a campaign needs k >= 2 vehicles")
        if window_s <= 0:
            raise ValueError("window must be positive")
        self.window_s = window_s
        self.k = k
        self._flagged: Dict[str, CampaignDetection] = {}
        self._campaign_vehicles: Dict[str, Set[str]] = {}
        self._cursors: List[int] = []
        self.detections: List[CampaignDetection] = []
        self.merges = 0

    # ------------------------------------------------------------------
    def merge(
        self, engines: Sequence[CorrelationEngine]
    ) -> Tuple[List[CampaignDetection], Dict[str, Set[str]]]:
        """One incremental stitch over the shard-local engines."""
        self.merges += 1
        while len(self._cursors) < len(engines):
            self._cursors.append(0)

        new_detections: List[CampaignDetection] = []
        new_vehicles: Dict[str, Set[str]] = {}
        dirty: Set[str] = set()
        local_detections: List[CampaignDetection] = []
        for index, engine in enumerate(engines):
            fresh = engine.detections[self._cursors[index]:]
            if fresh:
                local_detections.extend(fresh)
                self._cursors[index] = len(engine.detections)
            dirty |= engine.pop_dirty()

        # 1. Local detections: already-proven campaigns.  Extend the
        #    verdict with other engines' in-window pending vehicles (only
        #    relevant across a hub's regions; empty within one centre,
        #    where the merged detection equals the local one).
        #    Vehicles the engine attributed after its detection stay
        #    dirty, so step 2 attributes them in this same merge.
        for local in local_detections:
            sig = local.signature
            if sig in self._flagged:
                self._attribute(sig, set(local.vehicles), new_vehicles)
                continue
            entries = [e for engine in engines
                       for e in engine.pending_entries(sig)]
            cutoff = local.detect_time - self.window_s
            in_window = [(t, v) for t, v in entries if t >= cutoff]
            vehicles = set(local.vehicles) | {v for _, v in in_window}
            merged = CampaignDetection(
                signature=sig,
                detect_time=local.detect_time,
                first_time=min([local.first_time] + [t for t, _ in in_window]),
                vehicles=tuple(sorted(vehicles)),
                window_s=self.window_s,
                k=self.k,
            )
            self._fire(merged)
            self._attribute(sig, {v for _, v in entries}, new_vehicles)
            new_detections.append(merged)

        # 2. Dirty signatures: new spread of flagged campaigns, and the
        #    cross-engine sub-threshold stitch a hub's regions need.  An
        #    engine fires on its own at k, so one engine's window is
        #    always below k: only a signature windowed on two or more
        #    engines can cross k here.  Skipping every other unflagged
        #    dirty signature (a no-op) keeps the order and the outputs.
        held: Set[str] = set()
        stitch: Set[str] = set()
        for engine in engines:
            windowed = engine.windowed(dirty)
            stitch |= held & windowed
            held |= windowed
        flagged = self._flagged
        for sig in sorted(stitch | (flagged.keys() & dirty)):
            if sig in flagged:
                known = self._campaign_vehicles[sig]
                delta: Set[str] = set()
                for engine in engines:
                    delta |= engine.vehicles_beyond(sig, known)
                self._attribute(sig, delta, new_vehicles)
                continue
            entries = [e for engine in engines
                       for e in engine.pending_entries(sig)]
            newest = max(t for t, _ in entries)
            cutoff = newest - self.window_s
            in_window = [(t, v) for t, v in entries if t >= cutoff]
            vehicles = {v for _, v in in_window}
            if len(vehicles) < self.k:
                continue
            detection = CampaignDetection(
                signature=sig,
                detect_time=newest,
                first_time=min(t for t, _ in in_window),
                vehicles=tuple(sorted(vehicles)),
                window_s=self.window_s,
                k=self.k,
            )
            self._fire(detection)
            self._attribute(sig, {v for _, v in entries}, new_vehicles)
            new_detections.append(detection)
        return new_detections, new_vehicles

    # ------------------------------------------------------------------
    def _fire(self, detection: CampaignDetection) -> None:
        self._flagged[detection.signature] = detection
        self._campaign_vehicles[detection.signature] = set(detection.vehicles)
        self.detections.append(detection)

    def _attribute(
        self, signature: str, vehicles: Set[str],
        new_vehicles: Dict[str, Set[str]],
    ) -> None:
        known = self._campaign_vehicles[signature]
        delta = vehicles - known
        if delta:
            known |= delta
            new_vehicles.setdefault(signature, set()).update(delta)

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Canonical JSON-safe dump; ``cursors`` index into the engines'
        ``detections`` lists, so a merger snapshot is only consistent
        with engine snapshots taken at the same pump boundary (the
        center snapshots all of them together)."""
        return {
            "config": {"window_s": self.window_s, "k": self.k},
            "flagged": [self._flagged[s].as_dict()
                        for s in sorted(self._flagged)],
            "campaign_vehicles": sorted(
                [sig, sorted(vehicles)]
                for sig, vehicles in self._campaign_vehicles.items()),
            "cursors": list(self._cursors),
            "detections": [d.as_dict() for d in self.detections],
            "merges": self.merges,
        }

    @classmethod
    def from_snapshot(cls, state: Dict[str, object]) -> "GlobalCampaignMerger":
        cfg = state["config"]
        merger = cls(window_s=cfg["window_s"], k=cfg["k"])
        for dobj in state["flagged"]:
            detection = CampaignDetection.from_dict(dobj)
            merger._flagged[detection.signature] = detection
        merger._campaign_vehicles = {
            sig: set(vehicles)
            for sig, vehicles in state["campaign_vehicles"]}
        merger._cursors = list(state["cursors"])
        merger.detections = [CampaignDetection.from_dict(d)
                             for d in state["detections"]]
        merger.merges = state["merges"]
        return merger

    # ------------------------------------------------------------------
    @property
    def flagged_signatures(self) -> Tuple[str, ...]:
        return tuple(self._flagged)

    def campaign_vehicles(self, signature: str) -> Set[str]:
        """Fleet-wide vehicles attributed to a flagged campaign."""
        return set(self._campaign_vehicles.get(signature, set()))

    def spread(self, signature: str) -> int:
        return len(self._campaign_vehicles.get(signature, ()))
