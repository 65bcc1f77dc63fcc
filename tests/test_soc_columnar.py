"""Degenerate batches on the batched correlate path.

The module keeps its name from the former columnar correlate path; its
pinned regressions now hold ``CorrelationEngine.observe_batch`` to the
per-event semantics of ``observe`` on the batch shapes a random stream
rarely produces:

- an empty batch is an exact no-op (state *and* metrics, counters
  included);
- a fully severity-filtered batch leaves the engine byte-identical to
  the per-event path -- which does count ``observed``/
  ``low_severity_ignored`` and does advance the seen-ledger/watermark,
  so "no-op" is defined by the per-event semantics, not by wishing the
  counters away;
- the filtered batch's ledger side effects carry forward into later
  live traffic exactly as they do per event.
"""

import json

import pytest

from repro.core.safety import Asil
from repro.soc import CorrelationEngine, EventSource, make_event


def ev(vehicle, sig, time, seq, severity=Asil.C):
    return make_event(vehicle, EventSource.IDS, sig, time, seq,
                      severity=severity)


ENGINE_KW = dict(window_s=8.0, k=3, dedup_window_s=4.0, max_lateness_s=2.0)


def canon(engine):
    return json.dumps(engine.snapshot(), sort_keys=True)


class TestDegenerateBatches:
    def test_empty_batches_are_exact_noops(self):
        engine = CorrelationEngine(**ENGINE_KW)
        engine.observe(ev("v1", "ids.sig:0", 1.0, 1))
        before_state = canon(engine)
        before_metrics = engine.metrics()

        assert engine.observe_batch([]) == []
        assert engine.observe_batch(()) == []

        assert canon(engine) == before_state
        assert engine.metrics() == before_metrics

    @pytest.mark.parametrize("n", [1, 40])
    def test_fully_severity_filtered_batch_equals_per_event(self, n):
        # QM < min_severity B: every event is filtered.  The per-event
        # path still counts observed/low_severity_ignored, records the
        # ids in the seen ledger, and advances the watermark -- the
        # batched path must do exactly that, bit for bit, and nothing
        # else (no windows, no dedup keys, no detections).
        events = [ev(f"v{i:03d}", f"ids.sig:{i % 3}", 0.5 + 0.01 * i, i,
                     severity=Asil.QM) for i in range(n)]
        per_event = CorrelationEngine(**ENGINE_KW)
        batched = CorrelationEngine(**ENGINE_KW)
        for e in events:
            assert per_event.observe(e) is None
        assert batched.observe_batch(events) == [None] * n

        assert canon(batched) == canon(per_event)
        assert batched.metrics() == per_event.metrics()
        assert batched.metrics()["low_severity_ignored"] == float(n)
        assert batched.metrics()["observed"] == float(n)
        snap = batched.snapshot()
        assert snap["windows"] == []
        assert snap["last_by_key"] == []

    def test_filtered_batch_then_live_traffic_stays_identical(self):
        # The filtered batch's ledger/watermark side effects must carry
        # the same consequences forward (e.g. a duplicate id arriving
        # later is rejected on both paths).
        filtered = [ev(f"v{i:03d}", "ids.sig:0", 1.0 + 0.01 * i, i,
                       severity=Asil.QM) for i in range(20)]
        live = [ev(f"v{i:03d}", "ids.sig:1", 2.0 + 0.01 * i, 100 + i)
                for i in range(20)] + [filtered[3]]  # dup id redelivery
        per_event = CorrelationEngine(**ENGINE_KW)
        batched = CorrelationEngine(**ENGINE_KW)
        expected = [per_event.observe(e) for e in filtered + live]
        got = batched.observe_batch(filtered) + batched.observe_batch(live)
        assert got == expected
        assert canon(batched) == canon(per_event)
        assert batched.metrics()["duplicate_ids"] == 1.0
