"""Batched correlate path, bounded ledgers, and the global campaign merger.

Three differential layers pin the batched delivery path to the
per-event semantics:

- Hypothesis proves ``observe_batch(events)`` equivalent to
  ``[observe(e) for e in events]`` -- verdicts and byte-identical
  ``snapshot()`` state, every counter included -- on streams with
  duplicates, late arrivals, low-severity noise, and chatty-vehicle
  repeats, under arbitrary batch chunkings, with an empty batch
  (an exact no-op) observed between every chunk (the degenerate batch
  shapes are pinned in ``test_soc_columnar``);
- the incremental :class:`CorrelationEngine` is differentially proven
  against :class:`ReferenceCorrelationEngine` (the seed implementation,
  kept verbatim as the executable spec) inside the retention horizon;
- batch sinks are proven to deliver every dispatched event exactly once
  -- on the plain and the sharded pipeline -- and a full
  :class:`SecurityOperationsCenter` scenario is byte-identical to a
  per-event twin built from ``observe`` and the incident tracker, for
  both one and four shards.

Plus regression tests for the bounded dedup/duplicate ledgers (the
unbounded-growth fix) and unit tests for
:class:`GlobalCampaignMerger`'s cross-shard spread accounting.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.safety import Asil
from repro.sim import RngStreams, Simulator
from repro.soc import (
    CorrelationEngine,
    EventSource,
    FleetModel,
    FleetWorkloadGenerator,
    GlobalCampaignMerger,
    IncidentTracker,
    IngestPipeline,
    ReferenceCorrelationEngine,
    ResponseOrchestrator,
    SecurityOperationsCenter,
    ShardedIngestPipeline,
    StringInterner,
    build_batch,
    make_event,
    region_shard_key,
    seeded_campaigns,
    signature_shard_key,
)
from repro.soc.events import DEFAULT_SOURCE_SEVERITY, source_for_signature


def ev(vehicle, sig, time, seq, severity=Asil.C):
    return make_event(vehicle, EventSource.IDS, sig, time, seq,
                      severity=severity)


ENGINE_KW = dict(window_s=8.0, k=3, dedup_window_s=4.0, max_lateness_s=2.0)


def snapshot(engine):
    """Everything observable about an engine, for equality checks."""
    state = {
        "metrics": engine.metrics(),
        "watermark": engine.watermark,
        "detections": list(engine.detections),
        "flagged": engine.flagged_signatures,
        "campaigns": {s: engine.campaign_vehicles(s)
                      for s in engine.flagged_signatures},
    }
    if isinstance(engine, CorrelationEngine):
        state["evicted"] = (engine.ids_evicted, engine.keys_evicted,
                            engine.windows_evicted)
    return state


def canon(engine):
    return json.dumps(engine.snapshot(), sort_keys=True)


# ----------------------------------------------------------------------
# Stream strategy: duplicates, late, low-severity, chatty vehicles
# ----------------------------------------------------------------------
# Times stay inside [0, retention_horizon) so the bounded engine's
# ledger eviction cannot diverge from the unbounded reference -- the
# regression tests below pin what happens *beyond* the horizon.
_spec = st.tuples(
    st.integers(0, 4),                       # vehicle
    st.integers(0, 2),                       # signature
    st.floats(0.0, 5.9),                     # time (< retention 6.0)
    st.sampled_from([Asil.QM, Asil.A, Asil.B, Asil.C, Asil.D]),
    st.one_of(st.none(), st.integers(0, 30)),  # duplicate-of index
)


def build_stream(specs):
    events = []
    for seq, (veh, sig, t, sev, dup) in enumerate(specs):
        if dup is not None and dup < len(events):
            events.append(events[dup])      # exact redelivery
        else:
            events.append(ev(f"v{veh:03d}", f"ids.sig:{sig}", t, seq,
                             severity=sev))
    return events


@st.composite
def stream_and_chunks(draw):
    events = build_stream(draw(st.lists(_spec, min_size=1, max_size=40)))
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=40))
    return events, sizes


def chunked(events, sizes):
    i = n = 0
    while i < len(events):
        size = sizes[n % len(sizes)]
        yield events[i:i + size]
        i += size
        n += 1


class TestObserveBatchEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(stream_and_chunks())
    def test_batch_equals_per_event(self, case):
        events, sizes = case
        per_event = CorrelationEngine(**ENGINE_KW)
        batched = CorrelationEngine(**ENGINE_KW)

        expected = [per_event.observe(e) for e in events]
        got = []
        for batch in chunked(events, sizes):
            # The empty batch is an exact no-op, counters included.
            before = canon(batched)
            assert batched.observe_batch([]) == []
            assert canon(batched) == before
            got.extend(batched.observe_batch(batch))

        assert got == expected                  # per-event verdicts align
        assert canon(batched) == canon(per_event)
        assert snapshot(batched) == snapshot(per_event)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_spec, min_size=1, max_size=40))
    def test_incremental_engine_equals_reference(self, specs):
        events = build_stream(specs)
        fast = CorrelationEngine(**ENGINE_KW)
        reference = ReferenceCorrelationEngine(**ENGINE_KW)
        for e in events:
            got, want = fast.observe(e), reference.observe(e)
            assert got == want
        fast_state = snapshot(fast)
        fast_state.pop("evicted")
        assert fast_state == snapshot(reference)

    def test_single_whole_stream_batch(self):
        events = [ev(f"v{i}", "ids.sig:0", float(i), i) for i in range(6)]
        per_event = CorrelationEngine(**ENGINE_KW)
        batched = CorrelationEngine(**ENGINE_KW)
        expected = [per_event.observe(e) for e in events]
        assert batched.observe_batch(events) == expected
        assert snapshot(batched) == snapshot(per_event)


# ----------------------------------------------------------------------
# Bounded ledgers (the unbounded _seen_ids/_last_by_key growth fix)
# ----------------------------------------------------------------------
class TestBoundedLedgers:
    def test_ledgers_stay_bounded_where_reference_grows(self):
        fast = CorrelationEngine(window_s=2.0, k=10 ** 9,
                                 dedup_window_s=4.0, max_lateness_s=2.0)
        reference = ReferenceCorrelationEngine(
            window_s=2.0, k=10 ** 9, dedup_window_s=4.0, max_lateness_s=2.0)
        n = 5_000
        for i in range(n):                      # 1 event/s, time marches on
            e = ev(f"v{i:05d}", f"ids.sig:{i % 3}", float(i), i)
            fast.observe(e)
            reference.observe(e)
        assert len(reference._seen_ids) == n    # the old engine: O(forever)
        assert len(fast._seen_ids) < 50         # retention is 6 s of stream
        assert len(fast._last_by_key) < 50
        assert fast.ids_evicted > n - 50
        assert fast.metrics() == reference.metrics()  # hygiene unchanged

    def test_in_horizon_duplicate_still_counted_as_duplicate(self):
        engine = CorrelationEngine(**ENGINE_KW)
        e = ev("v1", "ids.sig:0", 10.0, 1)
        assert engine.observe(e) is None
        engine.observe(e)                       # immediate redelivery
        assert engine.duplicate_ids == 1
        assert engine.late_dropped == 0

    def test_beyond_horizon_duplicate_attributed_to_late_dropped(self):
        # Pinned semantics of the bounded ledger: once the watermark has
        # advanced past the retention horizon, a redelivered id's event
        # is (by construction) also beyond the lateness bound, so the
        # drop is attributed to late_dropped instead of duplicate_ids.
        # Same drop, same hygiene, bounded memory.
        engine = CorrelationEngine(**ENGINE_KW)
        stale = ev("v1", "ids.sig:0", 0.0, 1)
        engine.observe(stale)
        for i in range(2, 30):                  # advance well past retention
            engine.observe(ev("v2", "ids.sig:1", float(i * 5), i))
        assert engine.ids_evicted > 0
        before = engine.late_dropped
        engine.observe(stale)                   # redelivery after eviction
        assert engine.duplicate_ids == 0
        assert engine.late_dropped == before + 1

    def test_dedup_still_works_across_sweeps(self):
        # A chatty vehicle repeating inside dedup_window collapses to one
        # observation even after many eviction sweeps have run.
        engine = CorrelationEngine(**ENGINE_KW)
        seq = 0
        for base in (0.0, 100.0, 200.0):        # each block spans a sweep
            engine.observe(ev("v1", "ids.sig:0", base, seq)); seq += 1
            engine.observe(ev("v1", "ids.sig:0", base + 3.0, seq)); seq += 1
            engine.observe(ev("v1", "ids.sig:0", base + 9.0, seq)); seq += 1
        # Per block: +3.0 is inside the window (deduped, and it slides
        # `last` to +3.0); +9.0 is 6 s past that -- a fresh observation.
        assert engine.deduped == 3
        assert engine.ids_evicted > 0

    def test_stale_signature_windows_are_evicted(self):
        engine = CorrelationEngine(**ENGINE_KW)
        engine.observe(ev("v1", "ids.sig:cold", 0.0, 1))
        assert engine.pending_vehicles("ids.sig:cold") == {"v1"}
        engine.observe(ev("v2", "ids.sig:hot", 500.0, 2))
        assert engine.windows_evicted == 1
        assert engine.pending_vehicles("ids.sig:cold") == set()
        # ...and that is invisible to detection: no future admissible
        # event could have co-occurred with the cold window anyway.
        assert engine.metrics()["campaigns_flagged"] == 0


# ----------------------------------------------------------------------
# Batch sinks: same events, same order as per-event sinks
# ----------------------------------------------------------------------
PIPE_KW = dict(capacity_eps=40.0, queue_capacity=32, batch_size=8,
               min_severity=Asil.A)


def _drive(pipeline):
    """Deterministic offer/pump schedule; returns nothing -- callers
    compare what the sinks saw."""
    rng = RngStreams(7).get("drive")
    now = 0.0
    for seq in range(300):
        now += rng.random() * 0.05
        e = ev(f"v{seq % 17:03d}", f"ids.sig:{seq % 5}", now, seq,
               severity=Asil.B if seq % 3 else Asil.C)
        pipeline.offer(now, e)
        if seq % 20 == 19:
            pipeline.pump(now)
    pipeline.pump(now + 1.0)


class TestBatchSinkDelivery:
    @pytest.mark.parametrize("make", [
        lambda: IngestPipeline(**PIPE_KW),
        lambda: ShardedIngestPipeline(num_shards=4, **PIPE_KW),
        lambda: ShardedIngestPipeline(num_shards=4,
                                      shard_key=region_shard_key, **PIPE_KW),
    ])
    def test_each_event_delivered_once(self, make):
        pipeline = make()
        first, second = [], []
        pipeline.add_batch_sink(lambda now, b: first.append(list(b)))
        pipeline.add_batch_sink(lambda now, b: second.append(list(b)))
        _drive(pipeline)

        flattened = [e for batch in first for e in batch]
        assert len(flattened) == pipeline.metrics()["dispatched"]
        assert len({e.event_id for e in flattened}) == len(flattened)
        assert all(0 < len(b) <= PIPE_KW["batch_size"] for b in first)
        assert second == first                  # every sink, same batches


class TestBatchArrays:
    """``build_batch`` is public API the traced benchmark times."""

    def test_build_batch_groups_by_signature(self):
        events = [ev("v1", "ids.sig:b", 1.0, 1),
                  ev("v2", "ids.sig:a", 0.5, 2),
                  ev("v1", "ids.sig:b", 2.0, 3, severity=Asil.B)]
        interner = StringInterner()
        arrays = build_batch(events, interner)
        assert arrays.n == 3 and arrays.events == events
        assert arrays.order.tolist() == [0, 2, 1]
        assert arrays.group_bounds == [0, 2, 3]
        assert arrays.group_sigs == ["ids.sig:b", "ids.sig:a"]
        assert (arrays.t_min, arrays.t_max) == (0.5, 2.0)
        assert arrays.sev_min == int(Asil.B)
        assert arrays.ids_unique and not arrays.keys_unique
        assert arrays.dup_key_idx == [0, 2]
        assert not arrays.times_sorted
        assert interner.table == ["ids.sig:b", "ids.sig:a"]
        assert interner.intern("ids.sig:a") == 1
        assert build_batch([], interner).n == 0


# ----------------------------------------------------------------------
# GlobalCampaignMerger: cross-shard campaign stitching
# ----------------------------------------------------------------------
MERGE_KW = dict(window_s=8.0, k=3, dedup_window_s=0.0, max_lateness_s=100.0)


class TestGlobalCampaignMerger:
    def test_sub_threshold_shards_merge_into_campaign(self):
        # Region sharding: no single engine ever reaches k, the fleet did.
        e1, e2 = CorrelationEngine(**MERGE_KW), CorrelationEngine(**MERGE_KW)
        merger = GlobalCampaignMerger(window_s=8.0, k=3)
        e1.observe(ev("v1", "ids.sig:x", 1.0, 1))
        e1.observe(ev("v2", "ids.sig:x", 2.0, 2))
        e2.observe(ev("v3", "ids.sig:x", 3.0, 3))
        assert not e1.flagged_signatures and not e2.flagged_signatures

        detections, new_vehicles = merger.merge([e1, e2])
        assert [d.signature for d in detections] == ["ids.sig:x"]
        d = detections[0]
        assert d.vehicles == ("v1", "v2", "v3")
        assert d.first_time == 1.0 and d.detect_time == 3.0
        assert new_vehicles == {}
        assert merger.spread("ids.sig:x") == 3

    def test_closed_window_semantics_across_shards(self):
        # Far-apart shard entries must NOT stitch: the merger re-prunes
        # the union against the global newest with the same closed
        # window the engines use.
        e1, e2 = CorrelationEngine(**MERGE_KW), CorrelationEngine(**MERGE_KW)
        merger = GlobalCampaignMerger(window_s=8.0, k=3)
        e1.observe(ev("v1", "ids.sig:x", 0.0, 1))
        e1.observe(ev("v2", "ids.sig:x", 1.0, 2))
        e2.observe(ev("v3", "ids.sig:x", 50.0, 3))
        detections, _ = merger.merge([e1, e2])
        assert detections == []

        # Exactly window_s apart still co-occurs (closed window)...
        e3, e4 = CorrelationEngine(**MERGE_KW), CorrelationEngine(**MERGE_KW)
        merger2 = GlobalCampaignMerger(window_s=8.0, k=3)
        e3.observe(ev("v1", "ids.sig:y", 0.0, 4))
        e3.observe(ev("v2", "ids.sig:y", 4.0, 5))
        e4.observe(ev("v3", "ids.sig:y", 8.0, 6))
        detections, _ = merger2.merge([e3, e4])
        assert [d.signature for d in detections] == ["ids.sig:y"]

    def test_local_detection_forwarded_not_refired(self):
        # Signature sharding: the campaign lives wholly on one shard, so
        # the merged verdict IS the local one.
        e1, e2 = CorrelationEngine(**MERGE_KW), CorrelationEngine(**MERGE_KW)
        merger = GlobalCampaignMerger(window_s=8.0, k=3)
        local = None
        for i, veh in enumerate(("v1", "v2", "v3")):
            local = e1.observe(ev(veh, "ids.sig:x", float(i), i)) or local
        assert local is not None

        detections, _ = merger.merge([e1, e2])
        assert len(detections) == 1
        assert detections[0].vehicles == local.vehicles
        assert detections[0].detect_time == local.detect_time
        # A second merge with nothing new is a no-op.
        assert merger.merge([e1, e2]) == ([], {})
        assert merger.metrics()["campaigns_flagged"] == 1.0

    def test_adopt_campaign_and_spread_delta_accounting(self):
        e1, e2 = CorrelationEngine(**MERGE_KW), CorrelationEngine(**MERGE_KW)
        merger = GlobalCampaignMerger(window_s=8.0, k=3)
        e1.observe(ev("v1", "ids.sig:x", 1.0, 1))
        e1.observe(ev("v2", "ids.sig:x", 2.0, 2))
        e2.observe(ev("v3", "ids.sig:x", 3.0, 3))
        detections, _ = merger.merge([e1, e2])
        for engine in (e1, e2):
            engine.adopt_campaign(detections[0])
        assert e1.is_flagged("ids.sig:x") and e2.is_flagged("ids.sig:x")
        # Adoption folds the pending window into the campaign set...
        assert e1.campaign_vehicles("ids.sig:x") == {"v1", "v2"}
        # ...and later events attribute spread without re-firing.
        assert e2.observe(ev("v9", "ids.sig:x", 4.0, 9)) is None
        new_detections, new_vehicles = merger.merge([e1, e2])
        assert new_detections == []
        assert new_vehicles == {"ids.sig:x": {"v9"}}
        assert merger.campaign_vehicles("ids.sig:x") == {"v1", "v2", "v3", "v9"}
        # The delta really is a delta: reported once, not again.
        assert merger.merge([e1, e2]) == ([], {})


# ----------------------------------------------------------------------
# End-to-end: the centre against a per-event twin
# ----------------------------------------------------------------------
SCENE_N = 2_000
SCENE_KW = dict(capacity_eps=400.0, k=3)


def _scene():
    sim = Simulator()
    rng = RngStreams(3)
    fleet = FleetModel(SCENE_N, seeded_campaigns(rng, SCENE_N, 0.02))
    return sim, rng, fleet


def _run(sim, rng, fleet, pipeline, start):
    generator = FleetWorkloadGenerator(sim, rng, fleet, pipeline)
    start()
    generator.start()
    sim.run_until(12.0)


def _centre_scene(num_shards):
    sim, rng, fleet = _scene()
    soc = SecurityOperationsCenter(sim, fleet, num_shards=num_shards,
                                   **SCENE_KW)
    _run(sim, rng, fleet, soc.pipeline, soc.start)
    soc.final_drain()
    return soc


class _PerEventTwin:
    """The centre's topology rebuilt by hand: the same pipeline, but
    every drained event goes through ``observe`` one at a time, and
    incidents open/attach directly on the tracker (with the responder
    paged on each open)."""

    def __init__(self, sim, fleet, num_shards):
        kw = dict(capacity_eps=SCENE_KW["capacity_eps"], queue_capacity=2048,
                  batch_size=64)
        self.sim = sim
        engine_kw = dict(window_s=8.0, k=SCENE_KW["k"], dedup_window_s=4.0,
                         max_lateness_s=2.0)
        self.tracker = IncidentTracker()
        self.responder = ResponseOrchestrator(sim, self.tracker, fleet)
        if num_shards == 1:
            self.pipeline = IngestPipeline(**kw)
            self.engines = [CorrelationEngine(**engine_kw)]
            self.merger = None
            self.pipeline.add_batch_sink(self._single)
        else:
            self.pipeline = ShardedIngestPipeline(
                num_shards=num_shards, shard_key=signature_shard_key, **kw)
            self.engines = [CorrelationEngine(**engine_kw)
                            for _ in range(num_shards)]
            self.merger = GlobalCampaignMerger(window_s=8.0, k=SCENE_KW["k"])
            for index, shard in enumerate(self.pipeline.shards):
                shard.add_batch_sink(self._sharded(index))

    def _open(self, detection, base):
        self.responder.on_detection(
            self.tracker.open_from_detection(detection, base))

    def _single(self, now, events):
        engine = self.engines[0]
        for e in events:
            detection = engine.observe(e)
            if detection is not None:
                self._open(detection,
                           DEFAULT_SOURCE_SEVERITY.get(e.source, Asil.A))
            elif engine.is_flagged(e.signature):
                self.tracker.attach_vehicle(e.signature, e.vehicle_id)

    def _sharded(self, index):
        def handle(now, events):
            for e in events:
                self.engines[index].observe(e)
        return handle

    def _merge(self):
        if self.merger is None:
            return
        detections, new_vehicles = self.merger.merge(self.engines)
        for detection in detections:
            for engine in self.engines:
                engine.adopt_campaign(detection)
            source = source_for_signature(detection.signature)
            self._open(detection,
                       DEFAULT_SOURCE_SEVERITY.get(source, Asil.A))
        for sig in sorted(new_vehicles):
            for vehicle in sorted(new_vehicles[sig]):
                self.tracker.attach_vehicle(sig, vehicle)

    def _pump(self):
        self.pipeline.pump(self.sim.now)
        self._merge()
        self.sim.schedule(0.25, self._pump)

    def start(self):
        self.sim.schedule(0.25, self._pump)

    def final_drain(self):
        self.pipeline.pump(self.sim.now)
        self._merge()
        while self.pipeline.queue_depth:
            self.pipeline.drain_all(self.sim.now)
            self._merge()


def _twin_scene(num_shards):
    sim, rng, fleet = _scene()
    twin = _PerEventTwin(sim, fleet, num_shards)
    _run(sim, rng, fleet, twin.pipeline, twin.start)
    twin.final_drain()
    return twin


def _incident_state(tracker):
    return {
        iid: (inc.signature, inc.opened_at, inc.severity, inc.state,
              sorted(inc.vehicles), inc.history)
        for iid, inc in tracker.incidents.items()
    }


class TestCenterBatchedDifferential:
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_batched_center_identical_to_per_event(self, num_shards):
        centre = _centre_scene(num_shards)
        twin = _twin_scene(num_shards)
        assert centre.pipeline.metrics() == twin.pipeline.metrics()
        assert ([canon(e) for e in centre.correlators]
                == [canon(e) for e in twin.engines])
        if num_shards > 1:
            assert (json.dumps(centre.merger.snapshot(), sort_keys=True)
                    == json.dumps(twin.merger.snapshot(), sort_keys=True))
        assert centre.flagged_signatures()
        assert (json.dumps(centre.tracker.snapshot(), sort_keys=True)
                == json.dumps(twin.tracker.snapshot(), sort_keys=True))
        assert _incident_state(centre.tracker) == _incident_state(twin.tracker)
        assert centre.responder.metrics() == twin.responder.metrics()
