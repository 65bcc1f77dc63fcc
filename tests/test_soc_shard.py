"""Tests for repro.soc.shard: sharded ingest + conservation auditing.

Three layers of machine-checked accounting:

- Hypothesis property tests prove the :class:`BoundedQueue` conservation
  invariants (``offered == accepted + shed``,
  ``len(q) == accepted - drained - evicted``) under arbitrary
  offer/drain interleavings for all three shed policies, including the
  LOWEST_SEVERITY "never evict to admit less-severe" edge;
- differential tests prove an ``IngestPipeline`` with ``num_shards=1``
  is byte-identical to the single-queue pipeline it replaced (a golden
  recorded from that class on the same deterministic stream), and that
  N-shard merged counters equal the sum of per-shard counters;
- :class:`ConservationAudit` is exercised both as the oracle inside the
  differential drives and directly (it must *detect* a cooked ledger).
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.safety import Asil
from repro.sim import RngStreams, Simulator
from repro.soc import (
    BoundedQueue,
    ConservationAudit,
    ConservationError,
    EventSource,
    FleetModel,
    FleetWorkloadGenerator,
    IngestPipeline,
    SecurityOperationsCenter,
    ShedPolicy,
    make_event,
    region_shard_key,
    seeded_campaigns,
    signature_shard_key,
)


def ev(vehicle, sig, time, seq, severity=Asil.B):
    return make_event(vehicle, EventSource.IDS, sig, time, seq,
                      severity=severity)


# ----------------------------------------------------------------------
# Shard keys
# ----------------------------------------------------------------------
class TestShardKeys:
    def test_keys_deterministic_and_in_range(self):
        for key in (signature_shard_key, region_shard_key):
            for seq in range(64):
                event = ev(f"v{seq:06d}", f"sig-{seq % 7}", 1.0, seq)
                index = key(event, 8)
                assert 0 <= index < 8
                assert index == key(event, 8)  # stable across calls

    def test_signature_key_groups_campaigns(self):
        # Same signature from different vehicles -> same shard: a
        # shard-local consumer sees whole campaigns.
        indices = {
            signature_shard_key(ev(f"v{i:06d}", "ids.spec:0x0c9", 1.0, i), 8)
            for i in range(50)
        }
        assert len(indices) == 1

    def test_region_key_groups_vehicles(self):
        indices = {
            region_shard_key(ev("v000007", f"sig-{i}", 1.0, i), 8)
            for i in range(50)
        }
        assert len(indices) == 1

    def test_keys_actually_distribute(self):
        events = [ev(f"v{i:06d}", f"sig-{i}", 1.0, i) for i in range(200)]
        for key in (signature_shard_key, region_shard_key):
            assert len({key(e, 8) for e in events}) > 4


# ----------------------------------------------------------------------
# BoundedQueue conservation: property tests
# ----------------------------------------------------------------------
QUEUE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), st.sampled_from(list(Asil))),
        st.tuples(st.just("drain"), st.integers(min_value=0, max_value=5)),
    ),
    min_size=0, max_size=60,
)


class TestBoundedQueueConservation:
    @given(policy=st.sampled_from(list(ShedPolicy)), ops=QUEUE_OPS)
    @settings(max_examples=120, deadline=None)
    def test_invariants_under_interleavings(self, policy, ops):
        q = BoundedQueue(4, policy)
        shadow = []  # model of the queue's contents
        seq = 0
        for op, arg in ops:
            if op == "offer":
                event = ev(f"v{seq}", "s", float(seq), seq, severity=arg)
                seq += 1
                was_full = q.full
                min_before = min((x.severity for x in shadow), default=None)
                victim = q.offer(event.time, event)
                if victim is None:
                    assert not was_full
                    shadow.append(event)
                elif victim is event:
                    # Arrival refused at the door.
                    assert was_full
                    if policy is ShedPolicy.LOWEST_SEVERITY:
                        # ...only because nothing queued is less severe:
                        # the "never evict to admit less-severe" edge.
                        assert min_before >= event.severity
                    else:
                        assert policy is ShedPolicy.DROP_NEWEST
                else:
                    # A queued event was evicted to admit the arrival.
                    assert was_full
                    assert policy is not ShedPolicy.DROP_NEWEST
                    shadow.remove(victim)
                    shadow.append(event)
                    if policy is ShedPolicy.LOWEST_SEVERITY:
                        assert victim.severity == min_before
                        assert victim.severity < event.severity
            else:
                out = [event for _, event in q.drain(arg)]
                assert len(out) <= arg
                # Highest severity first, FIFO within a level.
                for left, right in zip(out, out[1:]):
                    assert left.severity >= right.severity
                for event in out:
                    shadow.remove(event)

            # Conservation after *every* operation.
            assert q.offered == q.accepted + q.shed
            assert len(q) == q.accepted - q.drained - q.evicted
            assert q.lost == q.shed + q.evicted
            assert len(q) == len(shadow)
            assert len(q) <= q.capacity

    @given(ops=QUEUE_OPS)
    @settings(max_examples=60, deadline=None)
    def test_lowest_severity_offers_never_lower_the_queue_max(self, ops):
        # Under LOWEST_SEVERITY an offer may only evict something strictly
        # less severe than the arrival, so the most severe queued level is
        # monotone under offers -- only drain may take it out.
        q = BoundedQueue(3, ShedPolicy.LOWEST_SEVERITY)
        shadow = []
        seq = 0
        for op, arg in ops:
            if op == "offer":
                event = ev(f"v{seq}", "s", float(seq), seq, severity=arg)
                seq += 1
                max_before = max((x.severity for x in shadow), default=None)
                victim = q.offer(event.time, event)
                if victim is None:
                    shadow.append(event)
                elif victim is not event:
                    shadow.remove(victim)
                    shadow.append(event)
                max_after = max((x.severity for x in shadow), default=None)
                if max_before is not None:
                    assert max_after >= max_before
            else:
                for _, drained in q.drain(arg):
                    shadow.remove(drained)


# ----------------------------------------------------------------------
# Differential: one shard == the pre-merge single-queue golden,
# merged == sum of shards
# ----------------------------------------------------------------------
def _stream(n_events=400, seed=7):
    """Deterministic event stream with invalid/low-severity/overload mix."""
    rng = random.Random(seed)
    severities = [Asil.QM, Asil.A, Asil.B, Asil.C, Asil.D]
    events = []
    now = 0.0
    for seq in range(n_events):
        now += rng.random() * 0.05
        kind = rng.random()
        if kind < 0.04:
            event = ev("", f"sig-{seq % 11}", now, seq)          # invalid
        elif kind < 0.08:
            event = ev(f"v{seq:06d}", "future", now + 99.0, seq)  # invalid
        else:
            event = ev(f"v{rng.randrange(40):06d}", f"sig-{rng.randrange(11)}",
                       now, seq, severity=rng.choice(severities))
        events.append((now, event))
    return events


def _drive(pipeline, events, pump_every=25):
    """Offer the stream, pumping periodically; returns the sink log."""
    audit = ConservationAudit()
    seen = []
    pipeline.add_batch_sink(
        lambda now, batch: seen.extend((now, e.event_id) for e in batch))
    for index, (now, event) in enumerate(events):
        pipeline.offer(now, event)
        if (index + 1) % pump_every == 0:
            pipeline.pump(now)
            audit.check(pipeline)      # the oracle: accounting adds up
    final = events[-1][0] + 1.0
    pipeline.pump(final)
    audit.check(pipeline)
    assert audit.checks > 0 and audit.failures == 0
    return seen


PIPE_KW = dict(capacity_eps=40.0, queue_capacity=32, batch_size=8,
               min_severity=Asil.A)


#: Recorded from the single-queue ``IngestPipeline(**PIPE_KW)`` that
#: preceded the sharded merge, driven by ``_drive(_stream())``: the
#: exact ``json.dumps(metrics())`` bytes (key order included) and the
#: SHA-256 of the sink log, one ``f"{now!r} {event_id}"`` line per
#: delivered event.
GOLDEN_ONE_SHARD_METRICS = (
    '{"offered": 400.0, "rejected_invalid": 35.0, "rejected_severity": 59.0,'
    ' "admitted": 306.0, "queued_shed": 1.0, "queue_refused": 0.0,'
    ' "queue_evicted": 1.0, "shed_rate": 0.0032679738562091504,'
    ' "dispatched": 305.0, "batches": 46.0, "queue_depth": 0.0,'
    ' "queue_depth_max": 32.0, "mean_dispatch_latency_s": 0.3302124377166165,'
    ' "max_dispatch_latency_s": 1.169217429802612}')
GOLDEN_ONE_SHARD_SINK = (
    305, "6e8bfafc34d18d305457737bc5c7d0fb5a0bbc674a70d140982167d5c3716b36")


class TestDifferential:
    def test_one_shard_byte_identical_to_plain(self):
        pipe = IngestPipeline(**PIPE_KW)
        seen = _drive(pipe, _stream())

        # Same events, same order, same dispatch times.
        log = "\n".join(f"{now!r} {eid}" for now, eid in seen).encode()
        assert (len(seen), hashlib.sha256(log).hexdigest()) \
            == GOLDEN_ONE_SHARD_SINK
        # Byte-identical, not merely approximately equal.
        assert json.dumps(pipe.metrics()) == GOLDEN_ONE_SHARD_METRICS
        # The stream actually exercised every accounting path.
        shard = pipe.shards[0]
        assert shard.rejected_invalid > 0
        assert shard.rejected_severity > 0
        assert shard.queue.lost > 0
        assert shard.stats["dispatch"].exited > 0

    def test_one_shard_congestion_signal_matches_plain(self):
        # The single-queue pipeline read congested on all three
        # signals once 20 events filled half its 32-slot queue.
        pipe = IngestPipeline(**PIPE_KW)
        for seq in range(20):
            pipe.offer(0.0, ev(f"v{seq}", "s", 0.0, seq))
        event = ev("v0", "s", 0.0, 999)
        assert (pipe.congested, pipe.fully_congested,
                pipe.congested_for(event)) == (True, True, True)

    def test_merged_counters_equal_sum_of_shards(self):
        events = _stream(n_events=600, seed=11)
        sharded = IngestPipeline(num_shards=4, **PIPE_KW)
        _drive(sharded, events)

        merged = sharded.metrics()
        per_shard = [s.metrics() for s in sharded.shards]
        assert len(per_shard) == 4
        assert sum(1 for m in per_shard if m["offered"]) > 1  # really spread
        for counter in ("offered", "rejected_invalid", "admitted",
                        "queued_shed", "dispatched", "batches", "queue_depth"):
            assert merged[counter] == sum(m[counter] for m in per_shard), counter
        for gauge in ("queue_depth_max", "max_dispatch_latency_s"):
            assert merged[gauge] == max(m[gauge] for m in per_shard), gauge

    @given(st.lists(
        st.tuples(st.integers(0, 30),                    # vehicle
                  st.integers(0, 6),                     # signature
                  st.sampled_from([Asil.A, Asil.B, Asil.D])),
        min_size=1, max_size=120,
    ))
    @settings(max_examples=40, deadline=None)
    def test_shard_merge_accounting_always_conserves(self, rows):
        sharded = IngestPipeline(num_shards=3, capacity_eps=20.0,
                                 queue_capacity=8, batch_size=4)
        audit = ConservationAudit()
        for seq, (vehicle, sig, severity) in enumerate(rows):
            now = seq * 0.01
            sharded.offer(now, ev(f"v{vehicle:06d}", f"sig-{sig}", now, seq,
                                  severity=severity))
            if seq % 10 == 9:
                sharded.pump(now)
                audit.check(sharded)
        sharded.pump(len(rows) * 0.01 + 1.0)
        audit.check(sharded)
        assert audit.failures == 0
        merged = sharded.metrics()
        assert merged["offered"] == len(rows)
        per_shard = [s.metrics() for s in sharded.shards]
        for counter in ("offered", "queued_shed", "dispatched", "queue_depth"):
            assert merged[counter] == sum(m[counter] for m in per_shard)


# ----------------------------------------------------------------------
# Worker pool semantics
# ----------------------------------------------------------------------
class TestShardedDrain:
    def test_first_pump_grants_one_cold_batch_per_worker(self):
        sharded = IngestPipeline(num_shards=4, capacity_eps=1000.0,
                                 queue_capacity=256, batch_size=8,
                                 shard_key=lambda e, n: int(e.vehicle_id[1:]) % n)
        for seq in range(200):
            sharded.offer(0.0, ev(f"v{seq}", "s", 0.0, seq))
        # Regardless of elapsed time, a cold pool drains exactly
        # batch_size * num_shards -- the plain pipeline's first-pump
        # quirk scaled to the worker count.
        assert sharded.pump(50.0) == 8 * 4
        assert sharded.pump(50.0) == 0          # zero elapsed, zero budget
        assert sharded.pump(51.0) == 200 - 32   # then capacity_eps * dt

    def test_budget_is_shared_and_work_conserving(self):
        # All events land on one hot shard; it may consume the whole
        # pool budget, not just 1/N of it.
        sharded = IngestPipeline(num_shards=4, capacity_eps=100.0,
                                 queue_capacity=512, batch_size=8,
                                 shard_key=lambda e, n: 0)
        for seq in range(300):
            sharded.offer(0.0, ev(f"v{seq}", "s", 0.0, seq))
        sharded.pump(0.0)                        # cold batches
        assert sharded.pump(1.0) == 100          # full shared budget, one shard
        assert sharded.shards[0].stats["dispatch"].exited == 132
        assert all(s.stats["dispatch"].exited == 0 for s in sharded.shards[1:])

    def test_round_robin_spreads_budget_across_hot_shards(self):
        sharded = IngestPipeline(num_shards=2, capacity_eps=40.0,
                                 queue_capacity=512, batch_size=8,
                                 shard_key=lambda e, n: int(e.vehicle_id[1:]) % n)
        for seq in range(200):
            sharded.offer(0.0, ev(f"v{seq}", "s", 0.0, seq))
        sharded.pump(0.0)
        sharded.pump(1.0)                        # 40-event budget
        drained = [s.stats["dispatch"].exited for s in sharded.shards]
        assert sum(drained) == 16 + 40
        assert abs(drained[0] - drained[1]) <= 8  # within one batch of fair

    def test_per_shard_congestion_only_throttles_hot_partition(self):
        key = lambda e, n: int(e.vehicle_id[1:]) % n
        sharded = IngestPipeline(num_shards=2, capacity_eps=10.0,
                                 queue_capacity=16, batch_size=4,
                                 shard_key=key)
        for seq in range(0, 40, 2):              # even vehicles -> shard 0
            sharded.offer(0.0, ev(f"v{seq}", "s", 0.0, seq))
        hot = ev("v2", "s", 0.0, 1000)
        cold = ev("v3", "s", 0.0, 1001)
        assert sharded.congested_for(hot)
        assert not sharded.congested_for(cold)
        assert sharded.congested
        assert not sharded.fully_congested

    def test_generator_suppression_is_per_shard(self):
        key = lambda e, n: int(e.vehicle_id[1:]) % n
        sharded = IngestPipeline(num_shards=2, capacity_eps=10.0,
                                 queue_capacity=16, batch_size=4,
                                 shard_key=key)
        sim = Simulator()
        fleet = FleetModel(10, [])
        generator = FleetWorkloadGenerator(sim, RngStreams(0), fleet, sharded,
                                           vectorized=False)
        for seq in range(0, 40, 2):              # congest shard 0 only
            sharded.offer(0.0, ev(f"v{seq}", "s", 0.0, seq))
        generator._offer(ev("v2", "noise", 0.0, 2000, severity=Asil.A))
        generator._offer(ev("v3", "noise", 0.0, 2001, severity=Asil.A))
        generator._offer(ev("v4", "alert", 0.0, 2002, severity=Asil.D))
        assert generator.suppressed_at_source == 1   # only the hot-shard A
        assert generator.emitted == 2                # cold A + hot D flow


# ----------------------------------------------------------------------
# ConservationAudit as a detector
# ----------------------------------------------------------------------
class TestConservationAudit:
    def test_detects_cooked_queue_ledger(self):
        pipe = IngestPipeline(**PIPE_KW)
        for seq in range(10):
            pipe.offer(0.0, ev(f"v{seq}", "s", 0.0, seq))
        audit = ConservationAudit()
        audit.check(pipe)
        assert audit.checks == 1
        pipe.shards[0].queue.shed += 1            # cook the books
        with pytest.raises(ConservationError):
            audit.check(pipe)
        assert audit.failures == 1
        assert "offered" in audit.last_error

    def test_detects_vanished_dispatch_on_a_shard(self):
        sharded = IngestPipeline(num_shards=2, **PIPE_KW)
        for seq in range(20):
            sharded.offer(0.0, ev(f"v{seq}", f"sig-{seq}", 0.0, seq))
        sharded.pump(1.0)
        audit = ConservationAudit()
        audit.check(sharded)
        victim = next(s for s in sharded.shards
                      if s.stats["dispatch"].exited > 0)
        victim.stats["dispatch"].exited -= 1      # lose one dispatched event
        with pytest.raises(ConservationError):
            audit.check(sharded)


# ----------------------------------------------------------------------
# Per-shard refusal counters in the merged metrics
# ----------------------------------------------------------------------
class TestMergedRefusalCounters:
    """``metrics()`` must surface queue refusals/evictions per shard and
    merged, and the admit-side conservation identity

        admitted == queue_refused + queue_evicted + dispatched + queued

    must be provable from the published numbers alone -- for each shard
    and for the merge (the frontend has no access to raw queue objects,
    only metrics dicts)."""

    @staticmethod
    def _overloaded(policy):
        # 4 shards x capacity 8: route vehicles round-robin, overfill two
        # shards so both refusal kinds occur, then drain everything.
        sharded = IngestPipeline(
            num_shards=4, capacity_eps=40.0, queue_capacity=8, batch_size=4,
            shed_policy=policy,
            shard_key=lambda e, n: int(e.vehicle_id[1:]) % n)
        for seq in range(24):                    # shards 0/1 get 12 each
            sev = Asil.A if seq % 3 else Asil.D  # mixed, so eviction can pick
            sharded.offer(0.0, ev(f"v{seq % 2}", "s", 0.0, seq, severity=sev))
        sharded.drain_all(1.0)
        return sharded

    def test_refusals_surface_and_conserve_drop_newest(self):
        sharded = self._overloaded(ShedPolicy.DROP_NEWEST)
        merged = sharded.metrics()
        per_shard = [s.metrics() for s in sharded.shards]
        # Pinned: 24 offered, 8+8 fit, 4+4 refused at the door, none
        # evicted (DROP_NEWEST never removes queued events).
        assert merged["admitted"] == 24.0
        assert merged["queue_refused"] == 8.0
        assert merged["queue_evicted"] == 0.0
        assert merged["dispatched"] == 16.0
        assert merged["queue_depth"] == 0.0
        assert [m["queue_refused"] for m in per_shard] == [4.0, 4.0, 0.0, 0.0]
        # Merged counters are exactly the per-shard sums.
        for key in ("queue_refused", "queue_evicted", "queued_shed",
                    "admitted", "dispatched"):
            assert merged[key] == sum(m[key] for m in per_shard)
        # The conservation identity holds from published metrics alone.
        assert merged["admitted"] == (
            merged["queue_refused"] + merged["queue_evicted"]
            + merged["dispatched"] + merged["queue_depth"])
        ConservationAudit().check(sharded)

    def test_evictions_surface_and_conserve_lowest_severity(self):
        sharded = self._overloaded(ShedPolicy.LOWEST_SEVERITY)
        merged = sharded.metrics()
        # Same overload, severity-aware policy: ASIL-D arrivals evict
        # queued ASIL-A noise; ASIL-A arrivals into full queues of equal
        # severity are refused.  Both kinds are published and the split
        # still sums to the total loss.
        assert merged["queue_evicted"] > 0.0
        assert merged["queued_shed"] == (
            merged["queue_refused"] + merged["queue_evicted"]) == 8.0
        assert merged["admitted"] == (
            merged["queue_refused"] + merged["queue_evicted"]
            + merged["dispatched"] + merged["queue_depth"])
        ConservationAudit().check(sharded)

    def test_audit_detects_cooked_refusal_counter(self):
        sharded = self._overloaded(ShedPolicy.DROP_NEWEST)
        audit = ConservationAudit()
        audit.check(sharded)
        sharded.shards[0].queue.shed -= 1         # hide one refusal
        with pytest.raises(ConservationError):
            audit.check(sharded)


# ----------------------------------------------------------------------
# Vectorized workload + end-to-end sharded SOC
# ----------------------------------------------------------------------
class TestVectorizedWorkload:
    def _run(self, seed=3, n=3000, **gen_kw):
        sim = Simulator()
        rng = RngStreams(seed)
        campaigns = seeded_campaigns(rng, n, 0.01)
        fleet = FleetModel(n, campaigns)
        soc = SecurityOperationsCenter(sim, fleet, capacity_eps=120.0,
                                       num_shards=4)
        generator = FleetWorkloadGenerator(sim, rng, fleet, soc.pipeline,
                                           vectorized=True, **gen_kw)
        soc.start()
        generator.start()
        sim.run_until(20.0)
        soc.pipeline.pump(sim.now)
        soc.audit.check(soc.pipeline)
        metrics = soc.metrics()
        metrics["emitted"] = float(generator.emitted)
        metrics["suppressed"] = float(generator.suppressed_at_source)
        return metrics

    def test_vectorized_runs_deterministically(self):
        a = self._run(seed=3)
        b = self._run(seed=3)
        assert a == b
        assert self._run(seed=4) != a

    def test_vectorized_overload_bulk_suppresses_but_counts(self):
        # 40x the benign volume vs a tiny backend: every shard congests
        # and whole ticks of ASIL-A noise take the bulk-suppression path.
        metrics = self._run(seed=3, benign_rate_eps=0.16)
        assert metrics["suppressed"] > 0
        assert metrics["audit_checks"] > 0
        assert metrics["queue_depth_max"] <= 2048
        # Nothing vanished: generator-side accounting closes too.
        assert metrics["emitted"] == metrics["offered"]

    def test_sharded_soc_closes_the_loop(self):
        metrics = self._run(seed=5)
        assert metrics["recall"] == 1.0
        assert metrics["policy_pushes"] >= 3
        assert metrics["audit_checks"] > 0
