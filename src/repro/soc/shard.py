"""The shard key and machine-checked conservation accounting for ingest.

An :class:`~repro.soc.ingest.IngestPipeline` partitions events across
``num_shards`` queues by :func:`signature_shard_key`, which keeps every
event of one attack signature on one shard, so a shard-local correlator
still sees whole campaigns.  Vehicles of one campaign meet across
engines only at a :class:`~repro.soc.federation.FederationHub`, whose
merger stitches the regions' windows.  The key hashes with CRC-32,
never :func:`hash` -- Python string hashing is salted per process and
would break run-to-run determinism.

**Scale-out must not launder events.**  HackCar-style low-cost test
benches (PAPERS.md) exist precisely because silent drops hide real
attacks; a sharded drop is even easier to lose than a single-queue one.
:class:`ConservationAudit` therefore re-proves, after every pump, for
every shard *and* the global merge, the flow-conservation identity

    offered == rejected_invalid + shed + dispatched + still_queued

(where ``shed`` counts queue refusals plus evictions), plus the
queue-internal invariants ``offered == accepted + shed`` and
``len(q) == accepted - drained - evicted``.  A violation raises
:class:`ConservationError` immediately -- the E17 bench runs with the
audit enabled in every cell, and the differential/property tests use it
as their oracle.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.soc.events import SecurityEvent


def stable_hash(text: str) -> int:
    """Process-stable 32-bit hash (CRC-32; ``hash()`` is salted)."""
    return zlib.crc32(text.encode("utf-8"))


def signature_shard_key(event: SecurityEvent, num_shards: int) -> int:
    """Partition by attack signature: one campaign, one shard."""
    return stable_hash(event.signature) % num_shards


class ConservationError(AssertionError):
    """An ingest pipeline's accounting no longer adds up."""


@dataclass
class ConservationAudit:
    """Re-proves ingest flow conservation after every pump.

    Checks, for each shard of an :class:`~repro.soc.ingest.IngestPipeline`::

        offered == rejected_invalid
                   + (queue.shed + queue.evicted)   # all queue losses
                   + dispatched + len(queue)

    plus the queue-internal identities ``offered == accepted + shed``,
    ``len == accepted - drained - evicted``, and ``drained ==
    dispatched`` (nothing leaves the queue except through dispatch);
    then proves the same split from the published ``metrics()`` alone,
    per shard and for the pipeline's merge.  ``check`` raises
    :class:`ConservationError` on the first violation; ``checks`` counts
    successful full audits (the E17 metrics report it so a silently
    skipped audit is itself visible).
    """

    checks: int = 0
    failures: int = 0
    last_error: Optional[str] = None

    def check(self, pipeline) -> None:
        """Audit every shard, then the merged metrics; raises on
        violation."""
        for index, shard in enumerate(pipeline.shards):
            label = f"shard[{index}]"
            self._check_ledger(label, shard)
            self._check_published(label, shard.metrics())
        self._check_published("global", pipeline.metrics())
        self.checks += 1

    # ------------------------------------------------------------------
    def _check_ledger(self, label: str, shard) -> None:
        q = shard.queue
        offered = shard.offered
        dispatched = shard.dispatched
        accounted = (
            shard.rejected_invalid + q.shed + q.evicted + dispatched + len(q)
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

    def _check_published(self, label: str, m: Dict[str, float]) -> None:
        """The same identity, provable from *published* metrics alone:
        offered splits into the invalid rejections plus everything the
        queues ever accepted (admitted = queue.offered), and admitted
        splits into refused at the door, evicted later, dispatched, or
        still queued."""
        published = m["rejected_invalid"] + m["admitted"]
        if m["offered"] != published:
            self._fail(label,
                       "metrics offered != rejected_invalid + admitted",
                       int(m["offered"]), int(published))
        admitted_split = (
            m["queue_refused"] + m["queue_evicted"]
            + m["dispatched"] + m["queue_depth"]
        )
        if m["admitted"] != admitted_split:
            self._fail(label,
                       "metrics admitted != queue_refused + queue_evicted"
                       " + dispatched + queue_depth",
                       int(m["admitted"]), int(admitted_split))

    def check_service(self, service) -> None:
        """Audit an :class:`~repro.soc.service.IngestService` front
        door's batch-flow identity::

            routed == acked + buffered + in-flight

        where *routed* excludes batches the per-client quota hard-refused
        at the door (``quota_refused`` -- those never enter a buffer,
        mirroring how the pipeline identity counts ``rejected_*`` outside
        ``admitted``).  A dead worker's work stays in flight until its
        restarted successor reports it.  The published
        :meth:`~repro.soc.service.IngestService.metrics` must republish
        every term (cooked-counter detection, same as the pipeline
        audit), including ``quota_refused``.
        """
        m = service.metrics()
        routed = service.batches_routed
        accounted = (service.batches_acked + service.buffered()
                     + service.inflight_batches())
        if routed != accounted:
            self._fail("service", "routed != acked + buffered + inflight",
                       routed, accounted)
        for key, attr in (("batches_routed", service.batches_routed),
                          ("batches_acked", service.batches_acked),
                          ("quota_refused", service.quota_refused),
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
