"""Bounded-queue ingestion pipeline with batching and load shedding.

The VSOC front door.  Design constraints taken from the ROADMAP
north-star ("heavy traffic from millions of users"): admission must be
O(1), memory must be bounded regardless of offered load, and overload
must degrade *explicitly* -- every shed event is counted and attributed
to a policy decision, never silently lost.

One :class:`IngestPipeline` holds ``num_shards`` :class:`IngestShard`
objects (one by default).  Each shard is one path through three stages:

``admit``     schema/timestamp sanity validation, severity floor;
``queue``     a :class:`BoundedQueue` with a pluggable :class:`ShedPolicy`;
``dispatch``  batch drain to the shard's registered sinks
              (the correlation engine, archival taps, ...).

A shard key (:mod:`repro.soc.shard`) routes each event to its shard;
with one shard no key is computed.  The pipeline owns the one backend
capacity budget, in *simulation time*: each ``pump(now)`` may dispatch
at most ``capacity_eps * dt`` events, handed out round-robin one batch
per shard per turn, so a fleet offering more than the backend sustains
visibly grows the queues until the shed policy engages -- the
backpressure signal (:meth:`IngestPipeline.congested_for`) that workload
sources use to throttle low-severity telemetry at origin.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.safety import Asil
from repro.soc.events import SecurityEvent
from repro.soc.shard import ShardKeyFn, signature_shard_key


class ShedPolicy(Enum):
    """What to drop when the queue is full."""

    DROP_NEWEST = "drop-newest"      # refuse the arriving event
    DROP_OLDEST = "drop-oldest"      # evict the head (stale-first)
    LOWEST_SEVERITY = "lowest-severity"  # evict the least-severe queued event


class TokenBucket:
    """Deterministic token bucket (admission-control rate limiter).

    ``rate`` tokens accrue per unit of time up to ``burst``; ``try_take``
    refills from the caller-supplied clock and then either debits
    ``amount`` whole (True) or leaves the bucket untouched (False) --
    a refused take never partially drains, so refusal accounting stays
    exact.  Time is injected on every call rather than read internally:
    the service front door feeds it a monotonic clock, tests feed it a
    counter, and either way behavior is a pure function of the call
    sequence.
    """

    __slots__ = ("rate", "burst", "tokens", "_t")

    def __init__(self, rate: float, burst: float, now: float = 0.0) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be > 0")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)   # starts full: a burst is allowed
        self._t = float(now)

    def _refill(self, now: float) -> None:
        if now > self._t:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._t) * self.rate)
            self._t = now

    def try_take(self, amount: float, now: float) -> bool:
        """Debit ``amount`` tokens if available; all-or-nothing."""
        self._refill(now)
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False

    def level(self, now: float) -> float:
        """Current token level after refilling to ``now``."""
        self._refill(now)
        return self.tokens


@dataclass
class StageStats:
    """Per-stage throughput/latency counters."""

    name: str
    entered: int = 0
    exited: int = 0
    batches: int = 0
    latency_sum_s: float = 0.0
    latency_max_s: float = 0.0

    @property
    def mean_latency_s(self) -> float:
        return self.latency_sum_s / self.exited if self.exited else 0.0


class BoundedQueue:
    """Severity-bucketed FIFO with hard capacity and explicit shedding.

    Entries are ``(enqueue_time, event)`` pairs kept in one deque per
    ASIL level; drain order is highest severity first, FIFO within a
    level, which makes LOWEST_SEVERITY eviction O(1) instead of an O(n)
    scan.  Each entry carries its own copy's enqueue time, so an event
    redelivered while a copy is still queued keeps both waits, whichever
    way (dispatch or eviction) each copy leaves.

    Accounting is conservation-complete: every offered event ends up in
    exactly one of ``shed`` (refused at the door), ``evicted`` (accepted,
    then dropped to make room), ``drained``, or the queue itself, so

    - ``offered == accepted + shed``
    - ``len(q) == accepted - drained - evicted``

    hold after every operation -- the invariants the property tests and
    :class:`~repro.soc.shard.ConservationAudit` machine-check.
    """

    def __init__(self, capacity: int, policy: ShedPolicy = ShedPolicy.DROP_OLDEST) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.policy = policy
        self._buckets: Dict[Asil, Deque[Tuple[float, SecurityEvent]]] = {
            level: deque() for level in Asil
        }
        self._size = 0
        self.offered = 0
        self.accepted = 0
        self.shed = 0      # arrivals refused at the door (never queued)
        self.evicted = 0   # accepted events later dropped to make room
        self.drained = 0   # events removed via drain()
        self.depth_max = 0

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size >= self.capacity

    @property
    def lost(self) -> int:
        """Total events dropped at the queue (refusals + evictions)."""
        return self.shed + self.evicted

    def offer(self, now: float, event: SecurityEvent
              ) -> Optional[SecurityEvent]:
        """Enqueue ``event`` stamped with ``now``; returns the event shed
        to make room (possibly the offered one), or ``None`` if nothing
        was dropped."""
        self.offered += 1
        victim: Optional[SecurityEvent] = None
        if self._size >= self.capacity:
            bucket = self._victim_bucket(event.severity)
            if bucket is None:
                self.shed += 1
                return event
            victim = bucket.popleft()[1]
            self.evicted += 1
        else:
            self._size += 1
            if self._size > self.depth_max:
                self.depth_max = self._size
        self._buckets[event.severity].append((now, event))
        self.accepted += 1
        return victim

    def _victim_bucket(self, severity: Asil
                       ) -> Optional[Deque[Tuple[float, SecurityEvent]]]:
        """The bucket whose head a full queue evicts for an arrival of
        ``severity``, or ``None`` to refuse the arrival instead."""
        if self.policy is ShedPolicy.DROP_NEWEST:
            return None
        # Both eviction policies take the head of the lowest non-empty
        # bucket (a full queue has one): stale low-severity telemetry
        # goes before fresh critical alerts.
        level = next(level for level in Asil if self._buckets[level])
        if self.policy is ShedPolicy.LOWEST_SEVERITY and level >= severity:
            return None  # never evict to admit something even less severe
        return self._buckets[level]

    def drain(self, limit: int) -> List[Tuple[float, SecurityEvent]]:
        """Dequeue up to ``limit`` ``(enqueue_time, event)`` entries,
        highest severity first."""
        out: List[Tuple[float, SecurityEvent]] = []
        if limit <= 0:
            return out
        for level in reversed(Asil):
            bucket = self._buckets[level]
            while bucket and len(out) < limit:
                out.append(bucket.popleft())
                self._size -= 1
            if len(out) >= limit:
                break
        self.drained += len(out)
        return out


class IngestShard:
    """One queue's admit -> queue -> dispatch path, with its accounting.

    Everything here is per queue; batch size and the capacity budget
    that decides how much to dispatch belong to the owning
    :class:`IngestPipeline`.
    ``congestion_watermark`` is the queue fill fraction above which
    :attr:`congested` turns on.
    """

    def __init__(
        self,
        queue_capacity: int,
        shed_policy: ShedPolicy,
        min_severity: Asil,
        congestion_watermark: float,
    ) -> None:
        self.min_severity = min_severity
        self.queue = BoundedQueue(queue_capacity, shed_policy)
        self._congestion_depth = max(1, int(queue_capacity * congestion_watermark))
        self._batch_sinks: List[Callable[[float, List[SecurityEvent]], None]] = []
        self.stats = {
            "admit": StageStats("admit"),
            "dispatch": StageStats("dispatch"),
        }
        self.rejected_invalid = 0
        self.rejected_severity = 0

    def add_batch_sink(
        self, sink: Callable[[float, List[SecurityEvent]], None]
    ) -> None:
        """Register a consumer that takes each drained batch as one list,
        in severity-major drain order.  This is the only delivery route:
        sinks run in registration order, so an archival tap added before
        the correlator sees each batch first (write-ahead)."""
        self._batch_sinks.append(sink)

    @property
    def congested(self) -> bool:
        return len(self.queue) >= self._congestion_depth

    @property
    def shed_rate(self) -> float:
        """Fraction of *offered* events shed at the queue (refusals plus
        evictions of previously accepted events)."""
        offered = self.queue.offered
        return self.queue.lost / offered if offered else 0.0

    def offer(self, now: float, event: SecurityEvent) -> bool:
        """Admit one event; returns True if it made it into the queue.
        A time outside ``[0, now]`` -- NaN and infinities included -- is
        invalid."""
        admit = self.stats["admit"]
        admit.entered += 1
        if not event.vehicle_id or not 0.0 <= event.time <= now + 1e-9:
            self.rejected_invalid += 1
            return False
        if event.severity < self.min_severity:
            self.rejected_severity += 1
            return False
        admit.exited += 1

        queue = self.queue
        shed = queue.shed
        queue.offer(now, event)
        return queue.shed == shed  # not refused at the door: queued

    def dispatch(self, now: float, limit: int) -> int:
        """Drain one batch of up to ``limit`` events and deliver it to
        the sinks; returns its size (the owning pipeline sizes batches
        and decides the allowance)."""
        entries = self.queue.drain(limit)
        if not entries:
            return 0
        dispatch = self.stats["dispatch"]
        dispatch.batches += 1
        batch: List[SecurityEvent] = []
        for t_in, event in entries:
            wait = max(0.0, now - t_in)
            dispatch.latency_sum_s += wait
            if wait > dispatch.latency_max_s:
                dispatch.latency_max_s = wait
            batch.append(event)
        dispatch.entered += len(batch)
        dispatch.exited += len(batch)
        for batch_sink in self._batch_sinks:
            batch_sink(now, batch)
        return len(batch)

    def metrics(self) -> Dict[str, float]:
        dispatch = self.stats["dispatch"]
        return {
            "offered": float(self.stats["admit"].entered),
            "rejected_invalid": float(self.rejected_invalid),
            "rejected_severity": float(self.rejected_severity),
            "admitted": float(self.queue.offered),
            "queued_shed": float(self.queue.lost),
            "queue_refused": float(self.queue.shed),
            "queue_evicted": float(self.queue.evicted),
            "shed_rate": self.shed_rate,
            "dispatched": float(dispatch.exited),
            "batches": float(dispatch.batches),
            "queue_depth": float(len(self.queue)),
            "queue_depth_max": float(self.queue.depth_max),
            "mean_dispatch_latency_s": dispatch.mean_latency_s,
            "max_dispatch_latency_s": dispatch.latency_max_s,
        }


class IngestPipeline:
    """``num_shards`` :class:`IngestShard` queues behind one front door
    and one backend capacity budget.

    Admission routes each event to ``shard_key(event, num_shards)``
    (default :func:`~repro.soc.shard.signature_shard_key`).  Draining
    simulates a worker pool sharing ``capacity_eps`` events per simulated
    second: each :meth:`pump` turns elapsed time into an allowance and
    :meth:`dispatch` hands it out round-robin, at most one batch per
    shard per turn, skipping drained shards -- work-conserving, so one
    hot shard can use the whole budget while the others are idle.

    ``queue_capacity`` is **per shard** (the memory bound scales with
    the worker pool, as N real consumer processes would).  Each shard
    keeps its own congestion watermark: :meth:`congested_for` is the
    signal for one event's shard, :attr:`congested` /
    :attr:`fully_congested` the any/all aggregates.  ``metrics()`` sums
    the shards' counters (``queue_depth_max`` and
    ``max_dispatch_latency_s`` are the worst single shard's);
    per-shard tables are ``[s.metrics() for s in pipeline.shards]``.
    """

    def __init__(
        self,
        capacity_eps: float = 250.0,
        queue_capacity: int = 2048,
        batch_size: int = 64,
        shed_policy: ShedPolicy = ShedPolicy.LOWEST_SEVERITY,
        min_severity: Asil = Asil.QM,
        congestion_watermark: float = 0.5,
        num_shards: int = 1,
        shard_key: Optional[ShardKeyFn] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.num_shards = num_shards
        self.shard_key: ShardKeyFn = shard_key or signature_shard_key
        self.capacity_eps = capacity_eps
        self.batch_size = batch_size
        self.shards: List[IngestShard] = [
            IngestShard(queue_capacity, shed_policy, min_severity,
                        congestion_watermark)
            for _ in range(num_shards)
        ]
        if num_shards == 1:
            # The only shard takes every event: no key, no extra call.
            self.offer = self.shards[0].offer
        self._last_pump: Optional[float] = None
        self._carry = 0.0  # fractional dispatch budget between pumps
        self._rr = 0  # round-robin cursor, persists across pumps for fairness

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def add_batch_sink(
        self, sink: Callable[[float, List[SecurityEvent]], None]
    ) -> None:
        """Register a batch consumer on every shard.  Shard-*local*
        consumers (per-shard correlators, archival taps that record the
        shard index) register on ``shards[i]`` directly instead."""
        for shard in self.shards:
            shard.add_batch_sink(sink)

    def shard_of(self, event: SecurityEvent) -> int:
        return self.shard_key(event, self.num_shards)

    def offer(self, now: float, event: SecurityEvent) -> bool:
        """Admit one event to its shard; True if it was queued."""
        return self.shards[self.shard_of(event)].offer(now, event)

    @property
    def queue_depth(self) -> int:
        """Events currently queued across every shard."""
        return sum(len(s.queue) for s in self.shards)

    @property
    def congested(self) -> bool:
        """True if *any* shard is past its watermark (conservative)."""
        return any(shard.congested for shard in self.shards)

    @property
    def fully_congested(self) -> bool:
        """True if *every* shard is past its watermark -- the bulk
        source-suppression fast path may then skip event construction."""
        return all(shard.congested for shard in self.shards)

    def congested_for(self, event: SecurityEvent) -> bool:
        """Backpressure for *this* event's shard: sources throttle only
        telemetry headed for a hot partition."""
        return self.shards[self.shard_of(event)].congested

    @property
    def shed_rate(self) -> float:
        """Fraction of *offered* events shed at the queues (refusals
        plus evictions of previously accepted events)."""
        offered = sum(s.queue.offered for s in self.shards)
        lost = sum(s.queue.lost for s in self.shards)
        return lost / offered if offered else 0.0

    # ------------------------------------------------------------------
    # Backend
    # ------------------------------------------------------------------
    def pump(self, now: float) -> int:
        """Dispatch queued events within the capacity budget since the
        last pump; returns the number dispatched.

        .. note:: **First-pump budget quirk (intended, pinned by test).**
           The very first ``pump`` has no reference point for elapsed
           simulation time, so it always grants exactly
           ``batch_size * num_shards`` -- one cold batch per worker --
           regardless of ``now``, never ``capacity_eps * now`` events.
        """
        if self._last_pump is None:
            budget = float(self.batch_size * self.num_shards)
        else:
            budget = self._carry + self.capacity_eps * max(0.0, now - self._last_pump)
        self._last_pump = now
        allowance = int(budget)
        self._carry = min(budget - allowance, self.capacity_eps)
        return self.dispatch(now, allowance)

    def dispatch(self, now: float, allowance: int) -> int:
        """Round-robin drain of up to ``allowance`` events, bypassing the
        rate budget (the caller owns it: :meth:`pump` or :meth:`drain_all`)."""
        dispatched = 0
        active = [s for s in self.shards if len(s.queue)]
        while dispatched < allowance and active:
            shard = active[self._rr % len(active)]
            want = min(self.batch_size, allowance - dispatched)
            got = shard.dispatch(now, want)
            dispatched += got
            if got < want or not len(shard.queue):
                active.remove(shard)  # drained dry; cursor stays put
            else:
                self._rr += 1
        if not active:
            self._rr = 0
        return dispatched

    def drain_all(self, now: float) -> int:
        """Dispatch everything still queued, bypassing the rate budget.

        End-of-run drain: the simulation is over, so capacity modeling no
        longer applies -- what matters is that every accepted event is
        scored and accounted, not when.  Bounded by the queue depth.
        """
        return self.dispatch(now, self.queue_depth)

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """The shards' :meth:`IngestShard.metrics`, merged."""
        merged: Dict[str, float] = {}
        latency_sum = 0.0
        for shard in self.shards:
            for key, value in shard.metrics().items():
                merged[key] = merged.get(key, 0.0) + value
            latency_sum += shard.stats["dispatch"].latency_sum_s
        dispatched = merged["dispatched"]
        merged["shed_rate"] = self.shed_rate
        merged["queue_depth_max"] = max(
            float(s.queue.depth_max) for s in self.shards)
        merged["mean_dispatch_latency_s"] = (
            latency_sum / dispatched if dispatched else 0.0)
        merged["max_dispatch_latency_s"] = max(
            s.stats["dispatch"].latency_max_s for s in self.shards)
        return merged
