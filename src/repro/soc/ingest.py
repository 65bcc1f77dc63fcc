"""Bounded-queue ingestion pipeline with batching and load shedding.

The VSOC front door.  Design constraints taken from the ROADMAP
north-star ("heavy traffic from millions of users"): admission must be
O(1), memory must be bounded regardless of offered load, and overload
must degrade *explicitly* -- every shed event is counted and attributed
to a policy decision, never silently lost.

Stages (each with its own :class:`StageStats`):

``admit``     schema/timestamp sanity validation, severity floor;
``queue``     a :class:`BoundedQueue` with a pluggable :class:`ShedPolicy`;
``dispatch``  capacity-limited batch drain to the registered sinks
              (the correlation engine, archival taps, ...).

Backend capacity is modelled in *simulation time*: each ``pump(now)``
may dispatch at most ``capacity_eps * dt`` events, so a fleet offering
more than the backend sustains visibly grows the queue until the shed
policy engages -- the backpressure signal (:attr:`IngestPipeline.congested`)
that workload sources use to throttle low-severity telemetry at origin.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Deque, Dict, List, Optional

from repro.core.safety import Asil
from repro.soc.events import SecurityEvent


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
    shed: int = 0
    batches: int = 0
    latency_sum_s: float = 0.0
    latency_max_s: float = 0.0
    depth_max: int = 0

    @property
    def mean_latency_s(self) -> float:
        return self.latency_sum_s / self.exited if self.exited else 0.0

    def throughput_eps(self, elapsed_s: float) -> float:
        return self.exited / elapsed_s if elapsed_s > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            f"{self.name}_in": float(self.entered),
            f"{self.name}_out": float(self.exited),
            f"{self.name}_shed": float(self.shed),
        }


class BoundedQueue:
    """Severity-bucketed FIFO with hard capacity and explicit shedding.

    Events are kept in one deque per ASIL level; drain order is highest
    severity first, FIFO within a level, which makes LOWEST_SEVERITY
    eviction O(1) instead of an O(n) scan.

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
        self._buckets: Dict[Asil, Deque[SecurityEvent]] = {
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

    def offer(self, event: SecurityEvent) -> Optional[SecurityEvent]:
        """Enqueue; returns the event shed to make room (possibly the
        offered one), or ``None`` if nothing was dropped."""
        self.offered += 1
        victim: Optional[SecurityEvent] = None
        if self.full:
            victim = self._evict_for(event)
            if victim is event:
                self.shed += 1
                return victim
        self._buckets[event.severity].append(event)
        self._size += 1
        self.accepted += 1
        if self._size > self.depth_max:
            self.depth_max = self._size
        if victim is not None:
            self.evicted += 1
        return victim

    def _evict_for(self, incoming: SecurityEvent) -> SecurityEvent:
        if self.policy is ShedPolicy.DROP_NEWEST:
            return incoming
        if self.policy is ShedPolicy.DROP_OLDEST:
            # Oldest = head of the lowest non-empty severity bucket; stale
            # low-severity telemetry goes before fresh critical alerts.
            for level in Asil:
                if self._buckets[level]:
                    self._size -= 1
                    return self._buckets[level].popleft()
        # LOWEST_SEVERITY: evict from the least-severe non-empty bucket,
        # but never to admit something even less severe.
        for level in Asil:
            bucket = self._buckets[level]
            if bucket:
                if level >= incoming.severity:
                    return incoming
                self._size -= 1
                return bucket.popleft()
        return incoming  # pragma: no cover - full implies a non-empty bucket

    def drain(self, limit: int) -> List[SecurityEvent]:
        """Dequeue up to ``limit`` events, highest severity first."""
        out: List[SecurityEvent] = []
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


class IngestPipeline:
    """admit -> queue -> dispatch, with per-stage accounting.

    ``capacity_eps``: backend dispatch capacity in events per simulated
    second.  ``congestion_watermark``: queue fill fraction above which
    :attr:`congested` turns on (sources may then pre-shed QM/A telemetry).
    """

    def __init__(
        self,
        capacity_eps: float = 250.0,
        queue_capacity: int = 2048,
        batch_size: int = 64,
        shed_policy: ShedPolicy = ShedPolicy.LOWEST_SEVERITY,
        min_severity: Asil = Asil.QM,
        congestion_watermark: float = 0.5,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.capacity_eps = capacity_eps
        self.batch_size = batch_size
        self.min_severity = min_severity
        self.queue = BoundedQueue(queue_capacity, shed_policy)
        self._congestion_depth = max(1, int(queue_capacity * congestion_watermark))
        self._batch_sinks: List[Callable[[float, List[SecurityEvent]], None]] = []
        # Enqueue timestamps keyed by *queue occupancy*, not by identity:
        # an at-least-once transport can redeliver an event while its
        # first copy is still queued, and a plain ``Dict[str, float]``
        # would overwrite the first copy's timestamp (skewing the wait of
        # one dispatch and zeroing the other).  Copies of one event_id
        # share a severity bucket and leave in FIFO order -- for every
        # exit path (dispatch *and* eviction both take the bucket head)
        # -- so a FIFO of timestamps per id keeps each copy's wait exact.
        self._enqueue_time: Dict[str, Deque[float]] = {}
        self._last_pump: Optional[float] = None
        self._carry = 0.0  # fractional dispatch budget between pumps
        self.stats = {
            "admit": StageStats("admit"),
            "queue": StageStats("queue"),
            "dispatch": StageStats("dispatch"),
        }
        self.rejected_invalid = 0
        self.rejected_severity = 0

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def add_batch_sink(
        self, sink: Callable[[float, List[SecurityEvent]], None]
    ) -> None:
        """Register a consumer that takes each drained batch as one list,
        in severity-major drain order.  This is the only delivery route:
        sinks run in registration order, so an archival tap added before
        the correlator sees each batch first (write-ahead)."""
        self._batch_sinks.append(sink)

    @property
    def queue_depth(self) -> int:
        """Events currently queued (uniform across plain/sharded)."""
        return len(self.queue)

    @property
    def congested(self) -> bool:
        return len(self.queue) >= self._congestion_depth

    @property
    def fully_congested(self) -> bool:
        """Uniform API with :class:`~repro.soc.shard.ShardedIngestPipeline`:
        a single queue is fully congested iff it is congested."""
        return self.congested

    def congested_for(self, event: SecurityEvent) -> bool:
        """Backpressure signal for *this* event's ingestion path.

        A plain pipeline has one path; the sharded pipeline overrides
        this per shard so sources only throttle telemetry headed for a
        hot partition.
        """
        return self.congested

    @property
    def shed_rate(self) -> float:
        """Fraction of *offered* events shed at the queue (refusals plus
        evictions of previously accepted events)."""
        offered = self.queue.offered
        return self.queue.lost / offered if offered else 0.0

    def offer(self, now: float, event: SecurityEvent) -> bool:
        """Admit one event; returns True if it made it into the queue."""
        admit = self.stats["admit"]
        admit.entered += 1
        if not event.vehicle_id or event.time < 0 or event.time > now + 1e-9:
            self.rejected_invalid += 1
            return False
        if event.severity < self.min_severity:
            self.rejected_severity += 1
            return False
        admit.exited += 1

        qstats = self.stats["queue"]
        qstats.entered += 1
        victim = self.queue.offer(event)
        if victim is not None:
            qstats.shed += 1
        if victim is event:
            # Refused at the door: it never had an enqueue timestamp (a
            # queued copy of the same id keeps its own).
            return False
        if victim is not None:
            self._drop_enqueue_time(victim)
        self._enqueue_time.setdefault(event.event_id, deque()).append(now)
        if len(self.queue) > qstats.depth_max:
            qstats.depth_max = len(self.queue)
        return True

    def _drop_enqueue_time(self, victim: SecurityEvent) -> None:
        """Forget the oldest queued copy's timestamp when it is evicted
        (evictions pop the bucket head, i.e. the oldest copy of an id)."""
        times = self._enqueue_time.get(victim.event_id)
        if times:
            times.popleft()
            if not times:
                del self._enqueue_time[victim.event_id]

    # ------------------------------------------------------------------
    # Backend
    # ------------------------------------------------------------------
    def pump(self, now: float) -> int:
        """Dispatch queued events within the capacity budget since the
        last pump; returns the number dispatched.

        .. note:: **First-pump budget quirk (intended, pinned by test).**
           The very first ``pump`` has no reference point for elapsed
           simulation time, so it always grants exactly ``batch_size``
           regardless of ``now`` -- a cold backend drains one batch, not
           ``capacity_eps * now`` events.  The sharded drain loop
           (:class:`~repro.soc.shard.ShardedIngestPipeline`) replicates
           this as ``batch_size * num_shards`` (one cold batch per
           worker) so ``num_shards=1`` stays bit-identical to a plain
           pipeline.
        """
        if self._last_pump is None:
            budget = float(self.batch_size)
        else:
            budget = self._carry + self.capacity_eps * max(0.0, now - self._last_pump)
        self._last_pump = now
        allowance = int(budget)
        self._carry = min(budget - allowance, self.capacity_eps)
        return self.dispatch(now, allowance)

    def dispatch(self, now: float, allowance: int) -> int:
        """Drain and deliver up to ``allowance`` events, one batch at a
        time, bypassing the rate budget (the caller owns it -- either
        :meth:`pump` or a sharded worker pool)."""
        dispatch = self.stats["dispatch"]
        dispatched = 0
        while dispatched < allowance:
            batch = self.queue.drain(min(self.batch_size, allowance - dispatched))
            if not batch:
                break
            dispatch.batches += 1
            for event in batch:
                dispatch.entered += 1
                times = self._enqueue_time.get(event.event_id)
                if times:
                    t_in = times.popleft()
                    if not times:
                        del self._enqueue_time[event.event_id]
                else:  # pragma: no cover - defensive; every queued copy logs a time
                    t_in = now
                wait = max(0.0, now - t_in)
                dispatch.latency_sum_s += wait
                if wait > dispatch.latency_max_s:
                    dispatch.latency_max_s = wait
                dispatch.exited += 1
                dispatched += 1
            for batch_sink in self._batch_sinks:
                batch_sink(now, batch)
        self.stats["queue"].exited += dispatched
        return dispatched

    def drain_all(self, now: float) -> int:
        """Dispatch everything still queued, bypassing the rate budget.

        End-of-run drain: the simulation is over, so capacity modeling no
        longer applies -- what matters is that every accepted event is
        scored and accounted, not when.  Bounded by the queue depth.
        """
        return self.dispatch(now, len(self.queue))

    # ------------------------------------------------------------------
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
