"""Seeded fault-injection harness for the federated VSOC.

Robustness claims elsewhere in this repo are each pinned by a dedicated
test (a partition cell, a SIGKILL differential, a torn-tail recovery).
This module turns those one-off scenarios into a reusable layer: a
:class:`FaultPlan` -- a seeded, declarative schedule of faults -- driven
against a *live* federated scene or ingest service by a runner that
asserts the system's conservation invariants at every heal point and
full convergence at the end.  The same plan replayed with the same seed
produces the same faults at the same times, so a chaos failure is a
reproducible bug report, not a flake.

Fault kinds:

- ``region_outage``: one region's WAN link down for ``[at_s, until_s)``
  -- sends refused, in-flight blobs lost, shipper cursor rewound to the
  receiver's applied frontier so the durable log retransmits (the loss
  model a real TCP reset implies).
- ``wan_degrade``: lag / jitter / duplication spike on one region's
  channel for a window, reverted exactly at heal.
- ``torn_shipment``: the next delivered blob on one region's link
  arrives with a flipped byte; the receiver's CRC check rejects it
  whole and a scheduled repair tick rewinds the shipper cursor -- the
  ARQ role a real transport's retransmit plays.
- ``worker_sigkill``: SIGKILL one ingest worker (or all) at a driver
  round; the supervisor restarts it from its durable store and replays
  unacked handoffs (:class:`ServiceChaosRunner` only -- it is a
  service-side fault, meaningless against a hub).

Invariant probes (:class:`ChaosInvariantViolation` on failure):

- **Receiver conservation** at every heal point and at the end:
  ``records_received == duplicates + applied_seq + buffered`` per
  region -- transport chaos may delay or repeat, never leak.
- **Convergence / byte-identity** at the end: the hub drains to zero
  unapplied records and its analytics snapshot is byte-identical to a
  fresh strict hub fed the union of the regions' durable logs directly
  (chaos on the wire must be invisible in the state).
- **Amendment tie-out**: every provisional verdict is classified
  exactly once -- ``confirmed + amended + retracted ==
  provisional_verdicts`` -- and the journal agrees with the counters.
- **Zero ACK loss** (service): after heal + drain, every routed batch
  is acked; the conservation audit holds at every restart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.soc.federation import FederationHub

FAULT_KINDS = ("region_outage", "wan_degrade", "torn_shipment",
               "worker_sigkill")
_WINDOWED = ("region_outage", "wan_degrade")


class ChaosInvariantViolation(AssertionError):
    """An invariant probe failed: the fault schedule found a real bug."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.  ``target`` is a region name (federation
    faults) or a worker-shard index as a string (``worker_sigkill``;
    ``None`` kills every worker).  For ``worker_sigkill`` the times are
    *driver rounds*, not seconds -- the service driver is round-based."""

    kind: str
    at_s: float
    until_s: Optional[float] = None
    target: Optional[str] = None
    lag_add_s: float = 0.0
    jitter_add_s: float = 0.0
    duplicate_add_p: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at_s < 0:
            raise ValueError("at_s must be >= 0")
        if self.kind in _WINDOWED:
            if self.until_s is None or self.until_s <= self.at_s:
                raise ValueError(f"{self.kind} needs until_s > at_s")
            if self.target is None:
                raise ValueError(f"{self.kind} needs a target region")
        elif self.until_s is not None:
            raise ValueError(f"{self.kind} is instantaneous (no until_s)")
        if self.kind == "torn_shipment" and self.target is None:
            raise ValueError("torn_shipment needs a target region")
        if self.kind == "wan_degrade" and not (
                self.lag_add_s > 0 or self.jitter_add_s > 0
                or self.duplicate_add_p > 0):
            raise ValueError("wan_degrade needs a positive delta")
        if self.lag_add_s < 0 or self.jitter_add_s < 0 \
                or not (0.0 <= self.duplicate_add_p <= 1.0):
            raise ValueError("bad degrade deltas")

    @property
    def heal_s(self) -> float:
        """When the fault stops acting (instantaneous faults heal at
        injection -- their *recovery* is what the probes then watch)."""
        return self.until_s if self.until_s is not None else self.at_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind, "at_s": self.at_s, "until_s": self.until_s,
            "target": self.target, "lag_add_s": self.lag_add_s,
            "jitter_add_s": self.jitter_add_s,
            "duplicate_add_p": self.duplicate_add_p,
        }


class FaultPlan:
    """An immutable, time-sorted fault schedule."""

    def __init__(self, faults: Sequence[Fault]) -> None:
        self.faults: Tuple[Fault, ...] = tuple(
            sorted(faults, key=lambda f: (f.at_s, f.heal_s, f.kind,
                                          f.target or "")))

    @classmethod
    def generate(cls, rng, duration_s: float, regions: Sequence[str], *,
                 num_workers: int = 0,
                 n_outages: int = 1, n_degrades: int = 1, n_torn: int = 1,
                 n_kills: int = 0, kill_rounds: int = 16) -> "FaultPlan":
        """Draw a reproducible plan from a seeded ``random.Random``.

        Windowed faults land inside ``[0.15, 0.6] * duration_s`` and
        heal by ``0.85 * duration_s`` -- chaos must stop in time for the
        end-of-run convergence probes to mean something.  Kill rounds
        are drawn over the service driver's round grid.
        """
        if not regions and (n_outages or n_degrades or n_torn):
            raise ValueError("federation faults need regions")
        faults: List[Fault] = []
        lo, hi, heal_by = (0.15 * duration_s, 0.6 * duration_s,
                           0.85 * duration_s)
        for _ in range(n_outages):
            start = rng.uniform(lo, hi)
            faults.append(Fault(
                kind="region_outage", at_s=start,
                until_s=min(heal_by, start + rng.uniform(
                    0.1 * duration_s, 0.3 * duration_s)),
                target=rng.choice(list(regions))))
        for _ in range(n_degrades):
            start = rng.uniform(lo, hi)
            faults.append(Fault(
                kind="wan_degrade", at_s=start,
                until_s=min(heal_by, start + rng.uniform(
                    0.1 * duration_s, 0.25 * duration_s)),
                target=rng.choice(list(regions)),
                lag_add_s=rng.uniform(0.2, 1.0),
                jitter_add_s=rng.uniform(0.0, 0.3),
                duplicate_add_p=rng.uniform(0.0, 0.2)))
        for _ in range(n_torn):
            faults.append(Fault(kind="torn_shipment",
                                at_s=rng.uniform(lo, hi),
                                target=rng.choice(list(regions))))
        for _ in range(n_kills):
            target = (str(rng.randrange(num_workers))
                      if num_workers and rng.random() < 0.5 else None)
            faults.append(Fault(kind="worker_sigkill",
                                at_s=float(rng.randrange(1, kill_rounds)),
                                target=target))
        return cls(faults)

    def faults_of(self, *kinds: str) -> List[Fault]:
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        return [f for f in self.faults if f.kind in kinds]

    def heal_points(self) -> List[float]:
        return sorted({f.heal_s for f in self.faults})

    def split(self) -> Tuple["FaultPlan", "FaultPlan"]:
        """(federation faults, service faults) -- one generated plan can
        feed both runners."""
        service = self.faults_of("worker_sigkill")
        federation = [f for f in self.faults if f.kind != "worker_sigkill"]
        return FaultPlan(federation), FaultPlan(service)

    def as_dict(self) -> Dict[str, object]:
        return {"faults": [f.as_dict() for f in self.faults]}

    def __len__(self) -> int:
        return len(self.faults)


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _reference_snapshot(scene) -> str:
    """The oracle: a fresh strict hub fed every region's durable log
    directly (no wire at all), finalized, canonically dumped."""
    runtime = next(iter(scene.regions.values()))
    hub = FederationHub.from_profile(
        list(scene.regions.keys()), runtime.center.federation_profile())
    for name, rt in scene.regions.items():
        receiver = hub.receivers[name]
        for record in rt.store.log.replay():
            receiver.buffer[record.seq] = record
    hub.finalize(0.0)
    return _canon(hub.analytics_snapshot())


class FederationChaosRunner:
    """Drive a :class:`~repro.experiments.e18_federation.FederatedScene`
    under a :class:`FaultPlan`, probing invariants at every heal point
    and proving convergence + byte-identity at the end.

    The runner owns the end-of-run sequence (it replaces
    ``scene.run``): after the simulated duration it rewinds every
    shipper cursor to its receiver's applied frontier -- the durable
    log is the retransmit buffer, so one final re-offer repairs any
    loss the chaos caused -- and only then runs the scene's normal
    finish (drain, ship, deliver, finalize).
    """

    def __init__(self, scene, plan: FaultPlan) -> None:
        if plan.faults_of("worker_sigkill"):
            raise ValueError(
                "worker_sigkill is a service fault; use "
                "ServiceChaosRunner (FaultPlan.split() separates them)")
        for fault in plan.faults:
            if fault.target is not None and fault.target not in scene.regions:
                raise ValueError(f"fault targets unknown region "
                                 f"{fault.target!r}")
        self.scene = scene
        self.plan = plan
        self.report: Dict[str, object] = {
            "plan": plan.as_dict(),
            "probes": [],
            "violations": [],
            "faults_injected": 0,
        }
        self._reverts: List[Tuple[float, Fault]] = []

    # -- fault handlers -------------------------------------------------
    def _inject_outage(self, fault: Fault) -> None:
        runtime = self.scene.regions[fault.target]
        runtime.channel.outages = runtime.channel.outages + (
            (fault.at_s, fault.until_s),)
        # The link died: in-flight blobs are gone; the cursor rewinds so
        # the log re-ships them after heal (dedup absorbs any overlap).
        runtime.channel.drop_in_flight()
        self._rewind(fault.target)
        self.report["faults_injected"] += 1

    def _inject_degrade(self, fault: Fault) -> None:
        channel = self.scene.regions[fault.target].channel
        channel.lag_s += fault.lag_add_s
        channel.jitter_s += fault.jitter_add_s
        applied_p = min(1.0, channel.duplicate_p + fault.duplicate_add_p) \
            - channel.duplicate_p
        channel.duplicate_p += applied_p
        self.scene.sim.schedule_at(fault.until_s, self._revert_degrade,
                                   fault, applied_p, priority=2)
        self.report["faults_injected"] += 1

    def _revert_degrade(self, fault: Fault, applied_p: float) -> None:
        channel = self.scene.regions[fault.target].channel
        channel.lag_s = max(0.0, channel.lag_s - fault.lag_add_s)
        channel.jitter_s = max(0.0, channel.jitter_s - fault.jitter_add_s)
        channel.duplicate_p = max(0.0, channel.duplicate_p - applied_p)

    def _inject_torn(self, fault: Fault) -> None:
        self.scene.regions[fault.target].channel.corrupt_next(1)
        # ARQ repair: after the torn blob has had time to deliver and be
        # rejected, rewind the cursor so the log re-ships its records.
        self.scene.sim.schedule_at(
            self.scene.sim.now + 2.0 * self.scene.ship_tick_s,
            self._rewind, fault.target, priority=2)
        self.report["faults_injected"] += 1

    def _rewind(self, region: str) -> None:
        runtime = self.scene.regions[region]
        applied = self.scene.hub.receivers[region].applied_seq
        if runtime.shipper.shipped_seq > applied:
            runtime.shipper.shipped_seq = applied

    # -- probes ---------------------------------------------------------
    def _probe(self, label: str, at_s: float) -> None:
        failures: List[str] = []
        hub = self.scene.hub
        for name, receiver in hub.receivers.items():
            expected = (receiver.duplicates + receiver.applied_seq
                        + len(receiver.buffer))
            if receiver.records_received != expected:
                failures.append(
                    f"receiver conservation broken for {name}: "
                    f"received={receiver.records_received} != "
                    f"duplicates+applied+buffered={expected}")
        if not hub.episode_active:
            classified = (hub.amendments_confirmed + hub.amendments_amended
                          + hub.amendments_retracted)
            if classified != hub.provisional_verdicts:
                failures.append(
                    f"amendment tie-out broken: {classified} classified "
                    f"vs {hub.provisional_verdicts} provisional")
        self.report["probes"].append(
            {"label": label, "at_s": at_s, "ok": not failures})
        self.report["violations"].extend(failures)

    def _end_probes(self) -> None:
        hub = self.scene.hub
        if hub.unapplied() != 0:
            self.report["violations"].append(
                f"hub did not converge: {hub.unapplied()} unapplied "
                f"records after finalize")
        classified = (hub.amendments_confirmed + hub.amendments_amended
                      + hub.amendments_retracted)
        if classified != hub.provisional_verdicts:
            self.report["violations"].append(
                f"amendment tie-out broken at end: {classified} vs "
                f"{hub.provisional_verdicts}")
        if len(hub.amendments) != classified:
            self.report["violations"].append(
                "amendment journal length disagrees with counters")
        self._probe("end", self.scene.sim.now)
        snapshot = _canon(hub.analytics_snapshot())
        if snapshot != _reference_snapshot(self.scene):
            self.report["violations"].append(
                "hub snapshot diverged from the union-log reference "
                "after heal")
        self.report["hub_metrics"] = hub.metrics()

    # -- drive ----------------------------------------------------------
    def run(self, duration_s: float) -> Dict[str, object]:
        sim = self.scene.sim
        for fault in self.plan.faults:
            if fault.heal_s >= duration_s:
                raise ValueError(
                    f"fault heals at {fault.heal_s}s, past the run "
                    f"duration {duration_s}s -- probes need quiet time")
            handler = {
                "region_outage": self._inject_outage,
                "wan_degrade": self._inject_degrade,
                "torn_shipment": self._inject_torn,
            }[fault.kind]
            sim.schedule_at(fault.at_s, handler, fault, priority=2)
        for heal_s in self.plan.heal_points():
            # Probe one ship tick after heal so a post-heal delivery and
            # hub advance have happened.
            sim.schedule_at(heal_s + 2.0 * self.scene.ship_tick_s,
                            self._probe, "heal", heal_s, priority=3)
        self.scene.start()
        sim.run_until(duration_s)
        for region in self.scene.regions:
            self._rewind(region)
        self.scene.finish()
        self._end_probes()
        return self.report

    def assert_clean(self) -> None:
        if self.report["violations"]:
            raise ChaosInvariantViolation(
                "; ".join(self.report["violations"]))


class ServiceChaosRunner:
    """Drive an :class:`~repro.soc.service.IngestService` round-by-round
    (the deterministic driver idiom from the hardening tests) while a
    plan's ``worker_sigkill`` faults crash workers mid-load, asserting
    the conservation audit at every restart and zero admitted-batch ACK
    loss at the end."""

    def __init__(self, plan: FaultPlan, root, *, mode: str = "inline",
                 num_workers: int = 2, rounds: int = 16, clients: int = 3,
                 config=None) -> None:
        bad = [f for f in plan.faults if f.kind != "worker_sigkill"]
        if bad:
            raise ValueError(
                f"ServiceChaosRunner only takes worker_sigkill faults "
                f"(got {bad[0].kind!r}); use FaultPlan.split()")
        self.plan = plan
        self.root = root
        self.mode = mode
        self.num_workers = num_workers
        self.rounds = rounds
        self.clients = clients
        self.config = config
        self.kills_by_round: Dict[int, List[Optional[int]]] = {}
        for fault in plan.faults:
            shard = None if fault.target is None else int(fault.target)
            if shard is not None and not (0 <= shard < num_workers):
                raise ValueError(f"fault targets unknown worker {shard}")
            rnd = int(fault.at_s)
            if rnd >= rounds:
                raise ValueError(
                    f"kill at round {rnd} but the drive has {rounds}")
            self.kills_by_round.setdefault(rnd, []).append(shard)
        self.report: Dict[str, object] = {
            "plan": plan.as_dict(),
            "violations": [],
            "faults_injected": 0,
            "worker_restarts": 0,
        }

    def run(self) -> Dict[str, object]:
        from repro.soc.service import (  # local: service pulls in mp setup
            IngestService,
            ServiceConfig,
            derive_session_key,
            encode_batch,
            seal_payload,
        )
        from repro.core.safety import Asil
        from repro.soc.events import EventSource, make_event
        from repro.soc.shard import ConservationError

        config = self.config or ServiceConfig(
            max_lateness_s=7200.0, snapshot_every_pumps=3,
            fleet_key=b"\x42" * 16)
        clk = [1000.0]
        svc = IngestService(self.num_workers, mode=self.mode,
                            root=self.root, config=config,
                            clock=lambda: clk[0])
        conns = [svc.open_conn(f"chaos-veh-{i}")
                 for i in range(self.clients)]
        keys = {c.client_id: derive_session_key(config.fleet_key,
                                                c.client_id)
                for c in conns} if config.fleet_key else {}
        routed = 0
        acked = 0
        try:
            for rnd in range(self.rounds):
                clk[0] += 1.0
                for conn in conns:
                    payload = encode_batch(rnd, [
                        make_event(conn.client_id, EventSource.IDS,
                                   f"chaos.sig.{i % 4}",
                                   900.0 + rnd + 0.01 * i,
                                   rnd * 100 + i, severity=Asil.C)
                        for i in range(3)])
                    if config.fleet_key:
                        payload = seal_payload(keys[conn.client_id],
                                               conn.client_id, payload)
                    if svc.route(conn, payload):
                        routed += 1
                svc.flush()
                for shard in self.kills_by_round.get(rnd, []):
                    targets = ([shard] if shard is not None
                               else list(range(self.num_workers)))
                    for t in targets:
                        svc.sigkill_worker(t)
                        self.report["faults_injected"] += 1
                    restarted = svc.check_workers()
                    self.report["worker_restarts"] += restarted
                    if restarted < len(targets):
                        self.report["violations"].append(
                            f"round {rnd}: killed {len(targets)} workers "
                            f"but only {restarted} restarted")
                    # Heal point: every resubmitted handoff must report
                    # back and the flow identity must still hold.
                    while svc.inflight_batches():
                        acked += len(svc.poll_completions(timeout=0.05))
                    try:
                        svc.audit_conservation()
                    except ConservationError as exc:
                        self.report["violations"].append(
                            f"round {rnd}: conservation audit after "
                            f"restart: {exc}")
                acked += len(svc.poll_completions(
                    timeout=0.01 if self.mode == "process" else 0.0))
            while svc.buffered() or svc.inflight_batches():
                svc.flush()
                acked += len(svc.poll_completions(timeout=0.01))
            try:
                svc.audit_conservation()
            except ConservationError as exc:
                self.report["violations"].append(
                    f"final conservation audit: {exc}")
            metrics = svc.metrics()
            if acked != routed:
                self.report["violations"].append(
                    f"ACK loss: routed {routed} batches, acked {acked}")
            if metrics["batches_acked"] != metrics["batches_routed"]:
                self.report["violations"].append(
                    f"ACK loss in metrics: routed "
                    f"{metrics['batches_routed']:.0f}, acked "
                    f"{metrics['batches_acked']:.0f}")
            self.report["batches_routed"] = routed
            self.report["batches_acked"] = acked
            self.report["service_metrics"] = metrics
        finally:
            svc.drain_and_close()
        return self.report

    def assert_clean(self) -> None:
        if self.report["violations"]:
            raise ChaosInvariantViolation(
                "; ".join(self.report["violations"]))
