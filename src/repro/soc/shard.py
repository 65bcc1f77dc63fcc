"""Sharded VSOC ingestion: partitioned queues, a shared drain budget,
and machine-checked conservation accounting.

A single :class:`~repro.soc.ingest.IngestPipeline` tops out around 10^5
vehicles per backend (ROADMAP "Async / multiprocess ingest"): one bounded
queue serializes admission and one drain loop serializes dispatch.  The
:class:`ShardedIngestPipeline` partitions events across ``num_shards``
independent pipelines via a pluggable :data:`ShardKeyFn` and drains them
round-robin from a simulated worker pool that shares one backend
capacity budget (``capacity_eps`` total, work-conserving: an idle
shard's slack flows to hot shards within the same pump).

Shard-key choice is a correlation-locality decision, not just load
balancing:

- :func:`signature_shard_key` (default) keeps every event of one attack
  signature on one shard, so per-shard consumers (a future shard-local
  correlator) still see whole campaigns;
- :func:`region_shard_key` partitions by vehicle, the geo/tenant layout
  an operator with regional backends would run.

Both hash with CRC-32, never :func:`hash` -- Python string hashing is
salted per process and would break run-to-run determinism.

**Scale-out must not launder events.**  HackCar-style low-cost test
benches (PAPERS.md) exist precisely because silent drops hide real
attacks; a sharded drop is even easier to lose than a single-queue one.
:class:`ConservationAudit` therefore re-proves, after every pump and for
every shard *and* the global merge, the flow-conservation identity

    offered == rejected_invalid + rejected_severity + shed
               + dispatched + still_queued

(where ``shed`` counts queue refusals plus evictions), plus the
queue-internal invariants ``offered == accepted + shed`` and
``len(q) == accepted - drained - evicted``.  A violation raises
:class:`ConservationError` immediately -- the E17 bench runs with the
audit enabled in every cell, and the differential/property tests use it
as their oracle.

Equivalence guarantee: a ``ShardedIngestPipeline`` with ``num_shards=1``
is *bit-identical* in behavior and ``metrics()`` to a plain
``IngestPipeline`` on the same event stream and pump schedule (the
differential tests pin this), so sharding is a pure scale knob, never a
semantics change.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.safety import Asil
from repro.soc.events import SecurityEvent
from repro.soc.ingest import IngestPipeline, ShedPolicy

#: Maps (event, num_shards) -> shard index in ``range(num_shards)``.
ShardKeyFn = Callable[[SecurityEvent, int], int]


def _stable_hash(text: str) -> int:
    """Process-stable 32-bit hash (CRC-32; ``hash()`` is salted)."""
    return zlib.crc32(text.encode("utf-8"))


def signature_shard_key(event: SecurityEvent, num_shards: int) -> int:
    """Partition by attack signature: one campaign, one shard."""
    return _stable_hash(event.signature) % num_shards


def region_shard_key(event: SecurityEvent, num_shards: int) -> int:
    """Partition by vehicle (a proxy for region/tenant residency)."""
    return _stable_hash(event.vehicle_id) % num_shards


class ConservationError(AssertionError):
    """An ingest pipeline's accounting no longer adds up."""


@dataclass
class ConservationAudit:
    """Re-proves ingest flow conservation after every pump.

    Checks, for a plain pipeline / each shard / the global merge::

        offered == rejected_invalid + rejected_severity
                   + (queue.shed + queue.evicted)   # all queue losses
                   + dispatched + len(queue)

    plus the queue-internal identities ``offered == accepted + shed``,
    ``len == accepted - drained - evicted``, and ``drained ==
    dispatched`` (nothing leaves the queue except through dispatch).
    ``check`` raises :class:`ConservationError` on the first violation;
    ``checks`` counts successful full audits (the E17 metrics report it
    so a silently skipped audit is itself visible).
    """

    checks: int = 0
    failures: int = 0
    last_error: Optional[str] = None

    def check(self, pipeline) -> None:
        """Audit a plain or sharded pipeline; raises on violation."""
        shards = getattr(pipeline, "shards", None)
        if shards is None:
            self._check_one("pipeline", pipeline)
        else:
            totals = {"offered": 0, "accounted": 0}
            for index, shard in enumerate(shards):
                offered, accounted = self._check_one(f"shard[{index}]", shard)
                totals["offered"] += offered
                totals["accounted"] += accounted
            if totals["offered"] != totals["accounted"]:
                self._fail(
                    "global", "merged shard accounting does not add up",
                    totals["offered"], totals["accounted"],
                )
            # The merged metrics() must publish the same decomposition:
            # summed admits split into summed refusals/evictions,
            # dispatches, and live depth across every shard.
            m = pipeline.metrics()
            merged_split = (
                m["queue_refused"] + m["queue_evicted"]
                + m["dispatched"] + m["queue_depth"]
            )
            if m["admitted"] != merged_split:
                self._fail(
                    "global",
                    "merged admitted != queue_refused + queue_evicted"
                    " + dispatched + queue_depth",
                    int(m["admitted"]), int(merged_split),
                )
        self.checks += 1

    # ------------------------------------------------------------------
    def _check_one(self, label: str, pipe: IngestPipeline):
        q = pipe.queue
        offered = pipe.stats["admit"].entered
        dispatched = pipe.stats["dispatch"].exited
        accounted = (
            pipe.rejected_invalid + pipe.rejected_severity
            + q.shed + q.evicted + dispatched + len(q)
        )
        if offered != accounted:
            self._fail(label, "offered != rejected + shed + dispatched + queued",
                       offered, accounted)
        if q.offered != q.accepted + q.shed:
            self._fail(label, "queue offered != accepted + shed",
                       q.offered, q.accepted + q.shed)
        if len(q) != q.accepted - q.drained - q.evicted:
            self._fail(label, "queue len != accepted - drained - evicted",
                       len(q), q.accepted - q.drained - q.evicted)
        if q.drained != dispatched:
            self._fail(label, "queue drained != dispatched",
                       q.drained, dispatched)
        # The same identity must be provable from the *published* metrics
        # alone: offered splits into the two admit rejections plus
        # everything the queue ever accepted (admitted = queue.offered).
        m = pipe.metrics()
        published = (
            m["rejected_invalid"] + m["rejected_severity"] + m["admitted"]
        )
        if m["offered"] != published:
            self._fail(label,
                       "metrics offered != rejected_invalid"
                       " + rejected_severity + admitted",
                       int(m["offered"]), int(published))
        # ... and the admitted side must decompose into the published
        # per-queue outcomes: refused at the door, evicted later,
        # dispatched, or still queued.  (queue_refused/queue_evicted are
        # summed per shard by the merged metrics(), so this identity is
        # provable for the global merge too, not just each shard.)
        admitted_split = (
            m["queue_refused"] + m["queue_evicted"]
            + m["dispatched"] + m["queue_depth"]
        )
        if m["admitted"] != admitted_split:
            self._fail(label,
                       "metrics admitted != queue_refused + queue_evicted"
                       " + dispatched + queue_depth",
                       int(m["admitted"]), int(admitted_split))
        return offered, accounted

    def check_service(self, service) -> None:
        """Audit an :class:`~repro.soc.service.IngestService` front
        door's batch-flow identity::

            routed == acked + buffered + in-flight + forgotten

        where *routed* excludes batches the per-client quota hard-refused
        at the door (``quota_refused`` -- those never enter a buffer,
        mirroring how the pipeline identity counts ``rejected_*`` outside
        ``admitted``), and *forgotten* is work an operator-level
        :meth:`~repro.soc.service.IngestService.kill_worker` deliberately
        dropped.  The published :meth:`~repro.soc.service.IngestService.\
metrics` must republish every term (cooked-counter detection, same as
        the pipeline audit), including ``quota_refused``.
        """
        m = service.metrics()
        routed = service.batches_routed
        accounted = (service.batches_acked + service.buffered()
                     + service.inflight_batches()
                     + service.batches_forgotten)
        if routed != accounted:
            self._fail("service",
                       "routed != acked + buffered + inflight + forgotten",
                       routed, accounted)
        for key, attr in (("batches_routed", service.batches_routed),
                          ("batches_acked", service.batches_acked),
                          ("quota_refused", service.quota_refused),
                          ("batches_forgotten", service.batches_forgotten),
                          ("buffered", service.buffered()),
                          ("inflight_batches", service.inflight_batches())):
            if m.get(key) != float(attr):
                self._fail("service", f"metrics {key} diverged from truth",
                           int(m.get(key, -1)), attr)
        self.checks += 1

    def _fail(self, label: str, what: str, lhs: int, rhs: int) -> None:
        self.failures += 1
        self.last_error = f"{label}: {what} ({lhs} != {rhs})"
        raise ConservationError(self.last_error)


class ShardedIngestPipeline:
    """N partitioned :class:`IngestPipeline` shards behind one facade.

    Admission routes each event to ``shard_key(event, num_shards)``;
    draining simulates a worker pool sharing one backend budget of
    ``capacity_eps`` events per simulated second: each pump converts
    elapsed time into an allowance (same carry arithmetic as the plain
    pipeline, including the first-pump ``batch_size``-per-worker grant)
    and hands it out round-robin, at most one batch per shard per turn,
    skipping drained shards -- work-conserving, so a single hot shard
    can use the whole budget when the others are idle.

    ``queue_capacity`` is **per shard** (memory bound scales with the
    worker pool, exactly as N real consumer processes would).  Each
    shard keeps its own congestion watermark; :meth:`congested_for`
    exposes the per-shard signal so workload sources throttle only the
    telemetry headed for a hot partition, and :attr:`congested` /
    :attr:`fully_congested` give the any/all aggregates.

    ``metrics()`` returns the same keys as ``IngestPipeline.metrics()``
    with counters summed across shards (``queue_depth_max`` is the
    hottest single shard's peak -- the bounded-memory guarantee is per
    queue); per-shard tables come from :meth:`shard_metrics`.  With
    ``num_shards=1`` every observable -- sink call order, congestion
    flips, ``metrics()`` bytes -- matches a plain pipeline exactly.
    """

    def __init__(
        self,
        num_shards: int = 4,
        shard_key: Optional[ShardKeyFn] = None,
        capacity_eps: float = 250.0,
        queue_capacity: int = 2048,
        batch_size: int = 64,
        shed_policy: ShedPolicy = ShedPolicy.LOWEST_SEVERITY,
        min_severity: Asil = Asil.QM,
        congestion_watermark: float = 0.5,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.shard_key: ShardKeyFn = shard_key or signature_shard_key
        self.capacity_eps = capacity_eps
        self.batch_size = batch_size
        self.shards: List[IngestPipeline] = [
            IngestPipeline(
                capacity_eps=capacity_eps / num_shards,  # nominal worker share
                queue_capacity=queue_capacity,
                batch_size=batch_size,
                shed_policy=shed_policy,
                min_severity=min_severity,
                congestion_watermark=congestion_watermark,
            )
            for _ in range(num_shards)
        ]
        self._last_pump: Optional[float] = None
        self._carry = 0.0
        self._rr = 0  # round-robin cursor, persists across pumps for fairness

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def add_batch_sink(
        self, sink: Callable[[float, List[SecurityEvent]], None]
    ) -> None:
        """Register a batch consumer on every shard: drained events are
        delivered per shard as lists (one Python call per batch, not per
        event).  Shard-*local* consumers (e.g. per-shard correlators)
        register on ``shards[i]`` directly instead."""
        for shard in self.shards:
            shard.add_batch_sink(sink)

    def shard_of(self, event: SecurityEvent) -> int:
        return self.shard_key(event, self.num_shards)

    def offer(self, now: float, event: SecurityEvent) -> bool:
        return self.shards[self.shard_of(event)].offer(now, event)

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
        """Per-shard backpressure: only throttle telemetry whose own
        partition is hot."""
        return self.shards[self.shard_of(event)].congested

    @property
    def shed_rate(self) -> float:
        offered = sum(s.queue.offered for s in self.shards)
        lost = sum(s.queue.lost for s in self.shards)
        return lost / offered if offered else 0.0

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def pump(self, now: float) -> int:
        """One worker-pool drain round within the shared budget.

        Budget arithmetic mirrors :meth:`IngestPipeline.pump` (including
        the first-pump quirk, scaled to one cold batch per worker) so a
        one-shard pool is indistinguishable from no pool at all.
        """
        if self._last_pump is None:
            budget = float(self.batch_size * self.num_shards)
        else:
            budget = self._carry + self.capacity_eps * max(0.0, now - self._last_pump)
        self._last_pump = now
        allowance = int(budget)
        self._carry = min(budget - allowance, self.capacity_eps)
        return self._dispatch_rounds(now, allowance)

    def _dispatch_rounds(self, now: float, allowance: int) -> int:
        """Round-robin worker-pool drain of up to ``allowance`` events."""
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

    @property
    def queue_depth(self) -> int:
        """Events currently queued across every shard."""
        return sum(len(s.queue) for s in self.shards)

    def drain_all(self, now: float) -> int:
        """Dispatch everything still queued, bypassing the shared budget
        (same round-robin drain order as :meth:`pump`; end-of-run use)."""
        return self._dispatch_rounds(now, self.queue_depth)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Merged counters, same schema as ``IngestPipeline.metrics()``."""
        merged: Dict[str, float] = {}
        latency_sum = 0.0
        for shard in self.shards:
            for key, value in shard.metrics().items():
                merged[key] = merged.get(key, 0.0) + value
            latency_sum += shard.stats["dispatch"].latency_sum_s
        dispatched = merged.get("dispatched", 0.0)
        merged["shed_rate"] = self.shed_rate
        merged["queue_depth_max"] = max(
            float(s.queue.depth_max) for s in self.shards)
        merged["mean_dispatch_latency_s"] = (
            latency_sum / dispatched if dispatched else 0.0)
        merged["max_dispatch_latency_s"] = max(
            s.stats["dispatch"].latency_max_s for s in self.shards)
        return merged

    def shard_metrics(self) -> List[Dict[str, float]]:
        """Per-shard metric dicts, index-aligned with :attr:`shards`."""
        return [shard.metrics() for shard in self.shards]
