"""Tests for the chaos harness (``tests/soc_chaos.py``) and the
optimistic federation mode.

Covers the :class:`FaultPlan` schema (validation, seeded generation
determinism, federation/service split), the torn-shipment corruption
knob on the channel, the :class:`Amendment` record (kind validation,
kept out of the tracker's snapshot), the optimistic hub's episode
lifecycle (open on stale blockers, reconcile on catch-up,
``declare_dead`` unblocking, the retract classification path and the
hub's one amendment journal), the tentpole differentials -- a
Hypothesis-driven space of outage schedules, duplication, and reorder,
at one shard and at four, always converging byte-identical to the
strict gate with the amendment counters tying out -- and full chaos
runs (federation scene under outage + degrade + torn shipment; ingest
service under worker SIGKILLs) asserting zero conservation violations
and zero admitted-batch ACK loss.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.safety import Asil
from repro.soc import (
    AMENDMENT_KINDS,
    Amendment,
    CampaignDetection,
    EventLog,
    EventSource,
    FederationHub,
    IncidentTracker,
    ShippingChannel,
    encode_shipment,
    make_event,
)
from repro.experiments.e18_federation import build_federated_scene
from repro.soc.store import canonical_dumps
from tests.soc_chaos import (
    FAULT_KINDS,
    ChaosInvariantViolation,
    Fault,
    FaultPlan,
    FederationChaosRunner,
    ServiceChaosRunner,
)


def _canon(obj):
    return json.dumps(obj, sort_keys=True)


def _detection(signature="xr.sig", vehicles=("v1", "v2", "v3"),
               detect_time=10.0):
    return CampaignDetection(signature=signature, detect_time=detect_time,
                             first_time=detect_time - 2.0,
                             vehicles=tuple(sorted(vehicles)),
                             window_s=8.0, k=3)


def ev(vehicle, sig, time, seq, severity=Asil.B):
    return make_event(vehicle, EventSource.IDS, sig, time, seq,
                      severity=severity)


# ----------------------------------------------------------------------
# Fault / FaultPlan schema
# ----------------------------------------------------------------------
class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(kind="cosmic_ray", at_s=1.0)

    def test_windowed_faults_need_a_window_and_target(self):
        with pytest.raises(ValueError, match="until_s > at_s"):
            Fault(kind="region_outage", at_s=5.0, target="r0")
        with pytest.raises(ValueError, match="until_s > at_s"):
            Fault(kind="region_outage", at_s=5.0, until_s=5.0, target="r0")
        with pytest.raises(ValueError, match="target region"):
            Fault(kind="region_outage", at_s=5.0, until_s=6.0)

    def test_instantaneous_faults_reject_until(self):
        with pytest.raises(ValueError, match="instantaneous"):
            Fault(kind="torn_shipment", at_s=5.0, until_s=6.0, target="r0")
        with pytest.raises(ValueError, match="target region"):
            Fault(kind="torn_shipment", at_s=5.0)

    def test_degrade_needs_a_positive_delta(self):
        with pytest.raises(ValueError, match="positive delta"):
            Fault(kind="wan_degrade", at_s=1.0, until_s=2.0, target="r0")
        with pytest.raises(ValueError, match="bad degrade deltas"):
            Fault(kind="wan_degrade", at_s=1.0, until_s=2.0, target="r0",
                  duplicate_add_p=1.5)

    def test_heal_s_and_as_dict(self):
        windowed = Fault(kind="region_outage", at_s=2.0, until_s=4.0,
                         target="r0")
        torn = Fault(kind="torn_shipment", at_s=3.0, target="r1")
        assert windowed.heal_s == 4.0
        assert torn.heal_s == 3.0
        assert windowed.as_dict()["kind"] == "region_outage"
        assert json.dumps(torn.as_dict())  # JSON-safe


class TestFaultPlan:
    def test_generate_is_deterministic_per_seed(self):
        regions = ["r0", "r1", "r2"]
        kw = dict(num_workers=2, n_outages=2, n_degrades=2, n_torn=2,
                  n_kills=2)
        a = FaultPlan.generate(random.Random(9), 30.0, regions, **kw)
        b = FaultPlan.generate(random.Random(9), 30.0, regions, **kw)
        c = FaultPlan.generate(random.Random(10), 30.0, regions, **kw)
        assert a.as_dict() == b.as_dict()
        assert a.as_dict() != c.as_dict()
        assert len(a) == 8

    def test_generated_windows_heal_before_the_run_ends(self):
        plan = FaultPlan.generate(random.Random(3), 40.0, ["r0"],
                                  n_outages=3, n_degrades=3, n_torn=3)
        for fault in plan.faults_of("region_outage", "wan_degrade"):
            assert 0.15 * 40.0 <= fault.at_s <= 0.6 * 40.0
            assert fault.heal_s <= 0.85 * 40.0
        assert plan.heal_points() == sorted(set(plan.heal_points()))

    def test_split_separates_service_faults(self):
        plan = FaultPlan.generate(random.Random(1), 30.0, ["r0"],
                                  num_workers=2, n_kills=3)
        federation, service = plan.split()
        assert not federation.faults_of("worker_sigkill")
        assert len(service) == 3
        assert all(f.kind == "worker_sigkill" for f in service.faults)
        assert len(federation) + len(service) == len(plan)

    def test_faults_of_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan([]).faults_of("gamma_burst")

    def test_generate_without_regions_needs_no_federation_faults(self):
        with pytest.raises(ValueError, match="need regions"):
            FaultPlan.generate(random.Random(0), 10.0, [])
        plan = FaultPlan.generate(random.Random(0), 10.0, [],
                                  num_workers=2, n_outages=0, n_degrades=0,
                                  n_torn=0, n_kills=1)
        assert len(plan) == 1


# ----------------------------------------------------------------------
# Torn-shipment corruption knob
# ----------------------------------------------------------------------
class TestCorruptNext:
    def test_corrupted_blob_is_rejected_whole_by_the_receiver(self, tmp_path):
        log = EventLog(tmp_path, segment_max_records=64)
        for b in range(4):
            log.append_batch(0.25 * (b + 1), 0,
                             [ev(f"v{b}", "sig.0", 0.2 * b, b)])
        payloads = [payload for _, payload in log.payloads()]
        log.close()
        blob = encode_shipment("region-a", 1, payloads)
        chan = ShippingChannel(random.Random(0))
        chan.corrupt_next(1)
        assert chan.send(0.0, blob)
        assert chan.send(0.0, blob)
        delivered = chan.deliver(10.0)
        assert chan.corrupted == 1
        hub = FederationHub(["region-a"], 1)
        ok = [hub.receive(b) for b in delivered]
        # Exactly one arrival survives its CRC check; the torn twin is
        # refused whole, never partially applied.
        assert sorted(ok) == [False, True]
        # The hub decodes each blob once: whichever byte tore, the
        # refusal is counted once, in the published metric.
        assert hub.metrics()["corrupt_rejected"] == 1.0
        hub.finalize(0.0)
        assert hub.records_applied == len(payloads)

    def test_corrupt_next_validates(self):
        with pytest.raises(ValueError):
            ShippingChannel(random.Random(0)).corrupt_next(0)


# ----------------------------------------------------------------------
# Amendment record
# ----------------------------------------------------------------------
class TestAmendments:
    def test_kind_validation_and_as_dict(self):
        with pytest.raises(ValueError, match="unknown amendment kind"):
            Amendment(kind="revise", signature="s", t=1.0)
        for kind in AMENDMENT_KINDS:
            Amendment(kind=kind, signature="s", t=1.0)
        a = Amendment(kind="amend", signature="s", t=1.0,
                      incident_id="INC-00001", vehicles_added=1)
        assert dataclasses.asdict(a)["vehicles_added"] == 1
        assert json.dumps(dataclasses.asdict(a))   # JSON-safe fields

    def test_snapshot_excludes_the_journal(self):
        tracker = IncidentTracker()
        tracker.open_from_detection(_detection(), Asil.C, provisional=True)
        restored = IncidentTracker.from_snapshot(tracker.snapshot())
        # provisional *is* state and round-trips; the journal is journey
        # (the hub keeps it) and the tracker has none.
        assert restored.incident_for("xr.sig").provisional
        assert _canon(restored.snapshot()) == _canon(tracker.snapshot())
        assert "amendments" not in tracker.snapshot()


# ----------------------------------------------------------------------
# Optimistic hub: episode lifecycle units
# ----------------------------------------------------------------------
def _campaign_blob(region, vehicles, sig="chaos.sig", t0=0.25,
                   region_tag=""):
    """One shipment whose batch + mark fire a k=3 campaign on replay."""
    events = [ev(f"{region_tag}{v}", sig, t0, i)
              for i, v in enumerate(vehicles)]
    return encode_shipment(region, 1, [
        canonical_dumps(["b", t0, 0, events]),
        canonical_dumps(["m", t0 + 0.25, -1])])


class TestOptimisticHub:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="staleness_budget_s"):
            FederationHub(["a"], 1, staleness_budget_s=-1.0)

    def _stalled_hub(self, budget=0.5):
        """region-a has a full campaign buffered; region-b is silent."""
        hub = FederationHub(["region-a", "region-b"], 1,
                            staleness_budget_s=budget)
        hub.receive(_campaign_blob("region-a", ["v1", "v2", "v3"]))
        return hub

    def test_episode_opens_only_past_the_budget(self):
        hub = self._stalled_hub(budget=0.5)
        hub.advance(0.0)
        # Inside the budget the gate behaves exactly like strict mode.
        assert not hub.episode_active
        assert hub.records_applied == 0
        assert hub.stalled_rounds == 1
        hub.advance(1.0)
        assert hub.episode_active
        assert hub.records_applied == 2
        assert hub.episodes == 1
        assert hub.provisional_verdicts == 1
        assert hub.tracker.incident_for("chaos.sig").provisional
        assert hub.metrics()["episode_active"] == 1.0

    def test_strict_hub_never_opens_an_episode(self):
        hub = FederationHub(["region-a", "region-b"], 1)
        hub.receive(_campaign_blob("region-a", ["v1", "v2", "v3"]))
        hub.advance(0.0)
        hub.advance(100.0)
        assert not hub.episode_active
        assert hub.records_applied == 0
        assert hub.stalled_rounds == 2

    def test_laggard_catchup_reconciles_to_confirm(self):
        hub = self._stalled_hub()
        hub.advance(0.0)
        hub.advance(1.0)
        assert hub.episode_active
        # The laggard reports in past the episode's records -- but a
        # frontier can still admit a future record *at* its own time, so
        # the episode stays conservatively open until end-of-stream
        # proves the order (the same tie-must-stall rule the strict gate
        # lives by).
        hub.receive(_campaign_blob("region-b", ["w1", "w2"], sig="b.sig",
                                   t0=5.0))
        hub.advance(1.5)
        assert hub.episode_active
        hub.finalize(2.0)
        assert not hub.episode_active
        assert hub.reconciliations == 1
        assert hub.amendments_confirmed == 1
        assert not hub.tracker.incident_for("chaos.sig").provisional
        assert [a.kind for a in hub.amendments] == ["confirm"]

    def test_declare_dead_unblocks_and_refuses_late_blobs(self):
        hub = self._stalled_hub()
        hub.advance(0.0)
        hub.advance(1.0)
        assert hub.episode_active
        assert hub.declare_dead("region-b") == 0
        hub.advance(1.5)
        assert not hub.episode_active
        assert hub.dead_regions == {"region-b"}
        assert not hub.receive(
            _campaign_blob("region-b", ["w1"], sig="late.sig"))
        assert hub.dead_rejected == 1
        assert hub.metrics()["dead_regions"] == 1.0
        with pytest.raises(ValueError, match="unknown region"):
            hub.declare_dead("region-z")

    def test_finalize_reconciles_byte_identical_to_strict(self):
        # region-b's (late-arriving) records sort wholly *before*
        # region-a's, so the canonical replay flags the campaign from
        # b's engine -- a different verdict object than the provisional
        # one a's engine fired alone: the reconciliation must amend.
        blob_a = _campaign_blob("region-a", ["v1", "v2", "v3"], t0=1.0)
        blob_b = _campaign_blob("region-b", ["v2", "v3", "v4"],
                                sig="chaos.sig", t0=0.1)
        optimistic = FederationHub(["region-a", "region-b"], 1,
                                   staleness_budget_s=0.5)
        optimistic.receive(blob_a)
        optimistic.advance(0.0)
        optimistic.advance(1.0)       # episode: verdict from a alone
        assert optimistic.provisional_verdicts == 1
        optimistic.receive(blob_b)    # b's earlier records arrive late
        optimistic.finalize(2.0)
        strict = FederationHub(["region-a", "region-b"], 1)
        strict.receive(blob_a)
        strict.receive(blob_b)
        strict.finalize(2.0)
        assert _canon(optimistic.analytics_snapshot()) == \
            _canon(strict.analytics_snapshot())
        assert optimistic.amendments_amended == 1
        amendment = optimistic.amendments[0]
        assert amendment.kind == "amend"
        assert amendment.vehicles_added == 1    # v4 joined the verdict
        assert amendment.vehicles_removed == 1  # v1 left it
        counts = (optimistic.amendments_confirmed
                  + optimistic.amendments_amended
                  + optimistic.amendments_retracted)
        assert counts == optimistic.provisional_verdicts

    def test_unreproducible_provisional_verdict_is_retracted(self):
        hub = self._stalled_hub()
        hub.advance(0.0)
        hub.advance(1.0)
        assert hub.episode_active
        # White-box: a provisional verdict the canonical replay cannot
        # reproduce (no records back it) must be retracted, and its
        # optimistically-opened incident does not survive the swap.
        ghost = _detection(signature="ghost.sig")
        hub._provisional.append((1.0, ghost))
        hub.provisional_verdicts += 1
        hub.tracker.open_from_detection(ghost, Asil.C, provisional=True)
        hub.finalize(2.0)
        assert hub.amendments_retracted == 1
        assert hub.tracker.incident_for("ghost.sig") is None
        retract = [a for a in hub.amendments if a.kind == "retract"][0]
        assert retract.signature == "ghost.sig"
        assert (hub.amendments_confirmed + hub.amendments_amended
                + hub.amendments_retracted) == hub.provisional_verdicts


# ----------------------------------------------------------------------
# Tentpole differential: optimistic == strict across a Hypothesis-driven
# space of outage schedules, duplication, and reorder (1 and 4 shards)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=[1, 4],
                ids=["shards-1", "shards-4"])
def chaos_corpus(request):
    """A federated run rendered as timestamped per-region blobs plus the
    strict-gate canonical state any delivery must converge to."""
    scene = build_federated_scene(seed=7, n_per_region=120, lag_s=0.0,
                                  num_shards=request.param)
    try:
        scene.start()
        scene.run(18.0)
        names = list(scene.regions)
        profile = next(iter(
            scene.regions.values())).center.federation_profile()
        shipments = []
        for name in names:
            log = scene.regions[name].store.log
            records = list(log.replay())
            payloads = [payload for _, payload in log.payloads()]
            for i in range(0, len(records), 5):
                chunk = records[i:i + 5]
                shipments.append((name, chunk[-1].dispatch_t,
                                  encode_shipment(name, chunk[0].seq,
                                                  payloads[i:i + 5])))
        expected = _canon(scene.hub.analytics_snapshot())
    finally:
        scene.close()
    return {"names": names, "profile": profile, "shipments": shipments,
            "expected": expected}


def _drive_schedule(hub, shipments, arrivals, end):
    """Deliver blobs at their arrival times, advancing the hub's clock
    through every arrival (so stall ages accrue), then finalize."""
    order = sorted(range(len(arrivals)), key=lambda i: (arrivals[i], i))
    for i in order:
        hub.advance(arrivals[i])
        hub.receive(shipments[i][2])
    hub.finalize(end)


class TestOptimisticDifferential:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_partition_dup_reorder_converges_with_tie_out(
            self, chaos_corpus, seed):
        rng = random.Random(seed)
        names = chaos_corpus["names"]
        victim = rng.choice(names)
        o0 = rng.uniform(2.0, 8.0)
        o1 = o0 + rng.uniform(3.0, 6.0)
        shipments = list(chaos_corpus["shipments"])
        arrivals = []
        for region, watermark, _ in shipments:
            arrival = watermark + 0.2 + rng.uniform(0.0, 0.3)  # reorder
            if region == victim and o0 <= arrival < o1:
                arrival = o1 + rng.uniform(0.0, 0.5)  # held by the outage
            arrivals.append(arrival)
        for i in range(len(shipments)):       # duplication
            if rng.random() < 0.25:
                shipments.append(shipments[i])
                arrivals.append(arrivals[i] + rng.uniform(0.0, 1.0))
        end = max(arrivals) + 1.0
        hub = FederationHub.from_profile(
            names, chaos_corpus["profile"], staleness_budget_s=0.5)
        _drive_schedule(hub, shipments, arrivals, end)
        assert hub.unapplied() == 0
        assert not hub.episode_active
        assert _canon(hub.analytics_snapshot()) == chaos_corpus["expected"]
        classified = (hub.amendments_confirmed + hub.amendments_amended
                      + hub.amendments_retracted)
        assert classified == hub.provisional_verdicts
        assert len(hub.amendments) == classified

    def test_partition_forces_episodes(self, chaos_corpus):
        """Deterministic anchor for the property above: a long outage on
        one region provably opens episodes, and reconciliation lands on
        the strict gate's bytes."""
        names = chaos_corpus["names"]
        victim = names[-1]
        shipments = chaos_corpus["shipments"]
        arrivals = []
        for region, watermark, _ in shipments:
            arrival = watermark + 0.2
            if region == victim and arrival >= 2.0:
                arrival += 14.0
            arrivals.append(arrival)
        end = max(arrivals) + 1.0
        hub = FederationHub.from_profile(
            names, chaos_corpus["profile"], staleness_budget_s=0.5)
        _drive_schedule(hub, shipments, arrivals, end)
        assert hub.episodes >= 1
        assert hub.provisional_verdicts >= 1
        assert hub.reconciliations >= 1
        assert _canon(hub.analytics_snapshot()) == chaos_corpus["expected"]


# ----------------------------------------------------------------------
# Chaos runs
# ----------------------------------------------------------------------
CHAOS_DURATION_S = 22.0


class TestFederationChaosRunner:
    def _plan(self, regions):
        return FaultPlan([
            Fault(kind="region_outage", at_s=6.0, until_s=11.0,
                  target=regions[-1]),
            Fault(kind="wan_degrade", at_s=4.0, until_s=9.0,
                  target=regions[0], lag_add_s=0.6, jitter_add_s=0.2,
                  duplicate_add_p=0.15),
            Fault(kind="torn_shipment", at_s=8.0, target=regions[1]),
        ])

    @pytest.mark.parametrize("staleness_budget_s", [None, 1.0],
                             ids=["strict", "optimistic"])
    def test_full_plan_runs_clean(self, tmp_path, staleness_budget_s):
        scene = build_federated_scene(
            seed=1, n_per_region=250, lag_s=0.5, jitter_s=0.3,
            root=tmp_path, staleness_budget_s=staleness_budget_s)
        try:
            runner = FederationChaosRunner(scene, self._plan(
                list(scene.regions)))
            report = runner.run(CHAOS_DURATION_S)
            runner.assert_clean()
        finally:
            scene.close()
        assert report["faults_injected"] == 3
        assert report["violations"] == []
        # Every heal point was probed, plus the end probe.
        assert len(report["probes"]) == len(runner.plan.heal_points()) + 1
        assert all(p["ok"] for p in report["probes"])
        assert report["hub_metrics"]["records_applied"] > 0
        if staleness_budget_s is not None:
            # The five-second outage with a one-second budget must have
            # tripped at least one episode -- and it still converged.
            assert report["hub_metrics"]["episodes"] >= 1

    def test_generated_plan_runs_clean(self, tmp_path):
        scene = build_federated_scene(seed=2, n_per_region=250, lag_s=0.5,
                                      root=tmp_path,
                                      staleness_budget_s=1.0)
        try:
            plan = FaultPlan.generate(
                random.Random(11), CHAOS_DURATION_S, list(scene.regions),
                n_outages=2, n_degrades=1, n_torn=1)
            runner = FederationChaosRunner(scene, plan)
            runner.run(CHAOS_DURATION_S)
            runner.assert_clean()
        finally:
            scene.close()

    def test_rejects_service_faults_and_unknown_regions(self, tmp_path):
        scene = build_federated_scene(seed=1, n_per_region=10,
                                      root=tmp_path)
        try:
            with pytest.raises(ValueError, match="ServiceChaosRunner"):
                FederationChaosRunner(scene, FaultPlan([
                    Fault(kind="worker_sigkill", at_s=1.0)]))
            with pytest.raises(ValueError, match="unknown region"):
                FederationChaosRunner(scene, FaultPlan([
                    Fault(kind="torn_shipment", at_s=1.0,
                          target="atlantis")]))
            with pytest.raises(ValueError, match="past the run duration"):
                FederationChaosRunner(scene, FaultPlan([
                    Fault(kind="torn_shipment", at_s=30.0,
                          target=list(scene.regions)[0])])).run(
                              CHAOS_DURATION_S)
        finally:
            scene.close()

    def test_violations_raise(self, tmp_path):
        scene = build_federated_scene(seed=1, n_per_region=10,
                                      root=tmp_path)
        try:
            runner = FederationChaosRunner(scene, FaultPlan([]))
            runner.report["violations"].append("synthetic breakage")
            with pytest.raises(ChaosInvariantViolation,
                               match="synthetic breakage"):
                runner.assert_clean()
        finally:
            scene.close()


class TestServiceChaosRunner:
    def test_sigkills_lose_no_acks(self, tmp_path):
        plan = FaultPlan([
            Fault(kind="worker_sigkill", at_s=4.0, target="1"),
            Fault(kind="worker_sigkill", at_s=9.0),  # kill every worker
        ])
        runner = ServiceChaosRunner(plan, tmp_path, mode="inline",
                                    num_workers=2, rounds=16)
        report = runner.run()
        runner.assert_clean()
        assert report["faults_injected"] == 3
        assert report["worker_restarts"] == 3
        assert report["batches_acked"] == report["batches_routed"] > 0
        assert report["service_metrics"]["batches_acked"] == \
            report["service_metrics"]["batches_routed"]

    def test_rejects_federation_faults_and_bad_targets(self, tmp_path):
        with pytest.raises(ValueError, match="only takes worker_sigkill"):
            ServiceChaosRunner(FaultPlan([
                Fault(kind="torn_shipment", at_s=1.0, target="r0")]),
                tmp_path)
        with pytest.raises(ValueError, match="unknown worker"):
            ServiceChaosRunner(FaultPlan([
                Fault(kind="worker_sigkill", at_s=1.0, target="7")]),
                tmp_path, num_workers=2)
        with pytest.raises(ValueError, match="but the drive has"):
            ServiceChaosRunner(FaultPlan([
                Fault(kind="worker_sigkill", at_s=20.0)]),
                tmp_path, rounds=16)
