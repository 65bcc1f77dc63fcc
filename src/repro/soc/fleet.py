"""Fleet model + seeded telemetry workload generator for the VSOC.

Scale discipline: the generator never materializes per-vehicle objects
or schedules per-vehicle callbacks -- state is O(compromised + events),
and each simulation tick draws event *counts* from seeded Poisson
streams and attributes them to vehicle indices on demand.  That is what
lets E17 sweep fleet sizes to 10^5 in pure Python; past that, the
numpy-vectorized path (batch Poisson/index/jitter draws plus bulk
source suppression under full congestion) carries the 10^6 cell.

Three traffic classes:

- **benign noise**: per-vehicle one-off signatures (a lone IDS false
  positive) plus a small pool of *ambient* signatures shared fleet-wide
  (parking-garage RF interference tripping PKES telemetry, a flaky
  infotainment build) -- the false-positive surface the correlator's
  k-of-window rule has to reject;
- **attack campaigns** (:class:`AttackCampaign`): the paper's §4.2
  class-break -- one exploit, one signature, spreading over a target set
  at a seeded rate until contained;
- **re-emissions**: compromised vehicles keep alerting until patched,
  exercising the correlator's per-vehicle dedup.

The generator honors the ingest pipeline's backpressure signal: while an
event's own ingestion path reports
:meth:`~repro.soc.ingest.IngestPipeline.congested_for`, ASIL-A telemetry
is suppressed *at the source* (counted, not lost silently).  That
signal is per shard, so a single hot partition never mutes telemetry
bound for cold ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

try:  # vectorized workload path; the scalar path needs no numpy
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a test dependency
    _np = None

from repro.core.safety import Asil
from repro.ids.base import Alert
from repro.sim import RngStreams, Simulator
from repro.sim.rng import derive_seed
from repro.soc.events import (
    DEFAULT_SOURCE_SEVERITY,
    EventSource,
    SecurityEvent,
    from_ids_alert,
    from_misbehavior_report,
    from_uds_security_failure,
    make_event,
)
from repro.soc.ingest import IngestPipeline
from repro.v2x.misbehavior import MisbehaviorReport


def poisson_draw(rng, lam: float) -> int:
    """Seeded Poisson sample (Knuth for small λ, normal approx beyond)."""
    if lam <= 0:
        return 0
    if lam > 64:
        return max(0, round(rng.gauss(lam, math.sqrt(lam))))
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


@dataclass
class AttackCampaign:
    """One class-break: a signature spreading over a fixed target set."""

    name: str
    source: EventSource
    start_s: float
    targets: Tuple[str, ...]
    rate_per_s: float                 # expected new compromises / second
    can_id: int = 0x0C9               # IDS campaigns
    detector: str = "spec"
    nrc: int = 0x35                   # DIAG campaigns (invalidKey)
    reason: str = "teleport"          # V2X campaigns

    @property
    def signature(self) -> str:
        """Must equal what the per-source adapter derives."""
        if self.source is EventSource.IDS:
            return f"ids.{self.detector}:{self.can_id:#05x}"
        if self.source is EventSource.DIAG:
            return f"diag.security_access:nrc{self.nrc:#04x}"
        return f"v2x.misbehavior:{self.reason}"

    def emit(self, vehicle_id: str, time: float, seq: int) -> SecurityEvent:
        """Build the vehicle's native alert and normalize it.

        Emission severity is floored at ASIL B: a signature that is part
        of a *successful* compromise is actionable even when its source
        class (e.g. a lone V2X content report) would default lower.
        """
        severity = max(DEFAULT_SOURCE_SEVERITY[self.source], Asil.B)
        if self.source is EventSource.IDS:
            alert = Alert(time, self.detector, self.can_id,
                          f"campaign {self.name}")
            return from_ids_alert(vehicle_id, alert, seq, severity=severity)
        if self.source is EventSource.DIAG:
            return from_uds_security_failure(vehicle_id, time, self.nrc, seq,
                                             severity=severity)
        report = MisbehaviorReport(time, vehicle_id, "ghost", b"\x00",
                                   self.reason)
        return from_misbehavior_report(report, seq, severity=severity)


class FleetModel:
    """Compromise/containment/patch bookkeeping for one fleet.

    ``id_base`` offsets this fleet's vehicle-id space: a federated
    deployment runs one :class:`FleetModel` per region, and disjoint id
    ranges (``id_base=r * 1_000_000``) are what make the hub's
    cross-region distinct-vehicle union mean what it says.  The default
    of 0 keeps a single-region fleet's ids byte-identical to every
    pre-federation run.
    """

    def __init__(self, n_vehicles: int, campaigns: List[AttackCampaign],
                 id_base: int = 0) -> None:
        self.n_vehicles = n_vehicles
        self.id_base = id_base
        self.campaigns = {c.signature: c for c in campaigns}
        self.compromised_at: Dict[str, Dict[str, float]] = {
            sig: {} for sig in self.campaigns
        }
        self._next_target: Dict[str, int] = {sig: 0 for sig in self.campaigns}
        self.contained_at: Dict[str, float] = {}
        self.patched: Dict[str, Set[str]] = {sig: set() for sig in self.campaigns}

    @staticmethod
    def vehicle_id(index: int) -> str:
        return f"v{index:06d}"

    def vid(self, index: int) -> str:
        """This fleet's id for local vehicle ``index`` (``id_base``-offset)."""
        return f"v{self.id_base + index:06d}"

    # ------------------------------------------------------------------
    # Attack dynamics
    # ------------------------------------------------------------------
    def step(self, now: float, dt: float, rng) -> List[Tuple[AttackCampaign, str]]:
        """Advance every uncontained campaign; returns new compromises."""
        newly: List[Tuple[AttackCampaign, str]] = []
        for sig, campaign in self.campaigns.items():
            if now < campaign.start_s or sig in self.contained_at:
                continue
            cursor = self._next_target[sig]
            remaining = len(campaign.targets) - cursor
            if remaining <= 0:
                continue
            count = min(remaining, poisson_draw(rng, campaign.rate_per_s * dt))
            for i in range(count):
                vehicle = campaign.targets[cursor + i]
                self.compromised_at[sig][vehicle] = now
                newly.append((campaign, vehicle))
            self._next_target[sig] = cursor + count
        return newly

    def contain(self, signature: str, now: float) -> int:
        """Stop a campaign's spread; returns vehicles saved from it."""
        if signature not in self.campaigns or signature in self.contained_at:
            return 0
        self.contained_at[signature] = now
        campaign = self.campaigns[signature]
        return len(campaign.targets) - len(self.compromised_at[signature])

    def patch(self, signature: str, vehicles: Set[str]) -> int:
        if signature not in self.patched:
            self.patched[signature] = set()
        before = len(self.patched[signature])
        self.patched[signature] |= vehicles
        return len(self.patched[signature]) - before

    # ------------------------------------------------------------------
    # Outcome metrics (ground truth -- the experiment's scorekeeper)
    # ------------------------------------------------------------------
    def blast_radius(self, signature: str) -> int:
        return len(self.compromised_at.get(signature, {}))

    def blast_averted(self, signature: str) -> int:
        campaign = self.campaigns.get(signature)
        if campaign is None:
            return 0
        return len(campaign.targets) - self.blast_radius(signature)

    def total_compromised(self) -> int:
        return sum(len(v) for v in self.compromised_at.values())

    def total_targets(self) -> int:
        return sum(len(c.targets) for c in self.campaigns.values())

    def attack_signatures(self) -> Set[str]:
        return set(self.campaigns)


#: Fleet size at/above which the generator auto-switches to the numpy
#: vectorized benign path (when numpy is importable).  Below it the
#: scalar path keeps the exact random-draw sequence the pre-vectorized
#: E17 cells published.
VECTORIZE_THRESHOLD = 200_000

#: Simulated seconds between generator ticks.
TICK_S = 0.5
#: Benign (ASIL A) telemetry per vehicle per second.
BENIGN_RATE_EPS = 0.004
#: Shared ambient (ASIL B) telemetry per vehicle per second.
AMBIENT_RATE_EPS = 0.0001
#: Re-emissions per compromised, unpatched vehicle per second.
REEMIT_RATE_EPS = 0.25

#: :func:`seeded_campaigns` plants this many campaigns, each with at
#: least ``CAMPAIGN_K_FLOOR`` targets, starting ``CAMPAIGN_START_S`` into
#: the run (2 s apart) and reaching their targets in about
#: ``CAMPAIGN_SPREAD_S``.
N_CAMPAIGNS = 3
CAMPAIGN_K_FLOOR = 5
CAMPAIGN_START_S = 4.0
CAMPAIGN_SPREAD_S = 15.0


class FleetWorkloadGenerator:
    """Drives the fleet on the simulation kernel, feeding the pipeline.

    ``vectorized=None`` auto-selects: numpy batch draws for fleets at or
    above :data:`VECTORIZE_THRESHOLD`, the scalar path otherwise.  The
    vectorized path draws each tick's benign volume -- Poisson count,
    vehicle indices, jitters, signature variants -- as whole numpy arrays
    instead of per-event ``random.Random`` calls (its own deterministic
    PCG64 stream, so scalar cells are untouched), and adds a bulk
    suppression fast path: while every ingest shard is congested, an
    entire tick's ASIL-A noise is counted as source-suppressed without
    ever constructing the events.  That is what makes the 10^6-vehicle
    E17 cell affordable: in overload, exactly the traffic that would be
    thrown away is the traffic never materialized -- and it is still
    *counted*, never silently lost.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: RngStreams,
        fleet: FleetModel,
        pipeline: IngestPipeline,
        vectorized: Optional[bool] = None,
    ) -> None:
        self.sim = sim
        self.fleet = fleet
        self.pipeline = pipeline
        # Shared "ambient" signatures: benign-but-actionable patterns that
        # recur fleet-wide (a flaky infotainment build tripping its own
        # IDS, garage RF noise).  The pool grows with the fleet -- more
        # vehicle variants, more distinct flaky patterns -- which keeps
        # the per-signature rate (the correlator's false-positive bait)
        # roughly constant across fleet scales.
        self.ambient_pool = max(32, fleet.n_vehicles // 10)
        self._benign_rng = rng.get("soc.benign")
        self._attack_rng = rng.get("soc.attack")
        if vectorized is None:
            vectorized = _np is not None and fleet.n_vehicles >= VECTORIZE_THRESHOLD
        if vectorized and _np is None:
            raise RuntimeError("vectorized workload generation requires numpy")
        self.vectorized = vectorized
        self._np_rng = (
            _np.random.Generator(_np.random.PCG64(
                derive_seed(rng.master_seed, "soc.benign.np")))
            if vectorized else None
        )
        self._seq = 0
        self.emitted = 0
        self.suppressed_at_source = 0

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def start(self) -> None:
        self.sim.schedule(TICK_S, self._tick)

    # ------------------------------------------------------------------
    def _offer(self, event: SecurityEvent) -> None:
        # Per-shard backpressure: only throttle telemetry whose own
        # ingestion path is hot (one shard means exactly one path).
        if event.severity <= Asil.A and self.pipeline.congested_for(event):
            self.suppressed_at_source += 1
            return
        self.emitted += 1
        self.pipeline.offer(self.sim.now, event)

    def _tick(self) -> None:
        now = self.sim.now
        if self.vectorized:
            self._benign_traffic_vectorized(now)
        else:
            self._benign_traffic(now)
        self._attack_traffic(now)
        self.sim.schedule(TICK_S, self._tick)

    def _benign_traffic_vectorized(self, now: float) -> None:
        """Numpy batch form of :meth:`_benign_traffic`.

        Same traffic model, different RNG stream: counts are exact
        Poisson draws (no normal approximation), and per-event attributes
        come from array draws.  While the pipeline is fully congested the
        ASIL-A block is suppressed in bulk -- counted, not constructed.
        """
        rng = self._np_rng
        n = self.fleet.n_vehicles
        # Per-vehicle one-off noise (ASIL A): volume, never correlates.
        k = int(rng.poisson(n * BENIGN_RATE_EPS * TICK_S))
        if k and self.pipeline.fully_congested:
            self.suppressed_at_source += k
        elif k:
            vehicles = rng.integers(0, n, size=k)
            jitters = rng.uniform(-TICK_S, 0.0, size=k)
            variants = rng.integers(0, 4, size=k)
            for index, jitter, variant in zip(vehicles, jitters, variants):
                vehicle = self.fleet.vid(int(index))
                self._offer(make_event(
                    vehicle, EventSource.V2X,
                    f"noise.{vehicle}:{int(variant)}",
                    max(0.0, now + float(jitter)),
                    self._next_seq(), severity=Asil.A,
                ))
        # Shared ambient patterns (ASIL B): actionable-looking, so they
        # reach the correlator -- never bulk-suppressed.
        k = int(rng.poisson(n * AMBIENT_RATE_EPS * TICK_S))
        if k:
            vehicles = rng.integers(0, n, size=k)
            jitters = rng.uniform(-TICK_S, 0.0, size=k)
            patterns = rng.integers(0, self.ambient_pool, size=k)
            for index, jitter, pattern in zip(vehicles, jitters, patterns):
                self._offer(make_event(
                    self.fleet.vid(int(index)), EventSource.GATEWAY,
                    f"ambient.telemetry:{int(pattern):04d}",
                    max(0.0, now + float(jitter)),
                    self._next_seq(), severity=Asil.B,
                ))

    def _benign_traffic(self, now: float) -> None:
        rng = self._benign_rng
        n = self.fleet.n_vehicles
        # Per-vehicle one-off noise (ASIL A): volume, never correlates.
        lam = n * BENIGN_RATE_EPS * TICK_S
        for _ in range(poisson_draw(rng, lam)):
            vehicle = self.fleet.vid(rng.randrange(n))
            jitter = rng.uniform(-TICK_S, 0.0)
            sig = f"noise.{vehicle}:{rng.randrange(4)}"
            self._offer(make_event(
                vehicle, EventSource.V2X, sig, max(0.0, now + jitter),
                self._next_seq(), severity=Asil.A,
            ))
        # Shared ambient patterns (ASIL B): actionable-looking, so they
        # reach the correlator -- the precision measurement's denominator.
        lam = n * AMBIENT_RATE_EPS * TICK_S
        for _ in range(poisson_draw(rng, lam)):
            vehicle = self.fleet.vid(rng.randrange(n))
            jitter = rng.uniform(-TICK_S, 0.0)
            sig = f"ambient.telemetry:{rng.randrange(self.ambient_pool):04d}"
            self._offer(make_event(
                vehicle, EventSource.GATEWAY, sig, max(0.0, now + jitter),
                self._next_seq(), severity=Asil.B,
            ))

    def _attack_traffic(self, now: float) -> None:
        rng = self._attack_rng
        # Fresh compromises: a detection burst from the victim itself.
        for campaign, vehicle in self.fleet.step(now, TICK_S, rng):
            self._offer(campaign.emit(vehicle, now, self._next_seq()))
        # Re-emissions from still-compromised, unpatched vehicles.
        for sig, campaign in self.fleet.campaigns.items():
            victims = [
                v for v in self.fleet.compromised_at[sig]
                if v not in self.fleet.patched[sig]
            ]
            if not victims:
                continue
            lam = len(victims) * REEMIT_RATE_EPS * TICK_S
            for _ in range(poisson_draw(rng, lam)):
                vehicle = victims[rng.randrange(len(victims))]
                self._offer(campaign.emit(vehicle, now, self._next_seq()))


def seeded_campaigns(
    rng: RngStreams,
    n_vehicles: int,
    prevalence: float,
) -> List[AttackCampaign]:
    """Deterministically plant :data:`N_CAMPAIGNS` class-breaks.

    Target counts honor ``prevalence`` but never drop below
    :data:`CAMPAIGN_K_FLOOR` per campaign (a campaign that cannot reach
    the correlator's k would make recall unmeasurable at toy fleet
    sizes).
    """
    picker = rng.get("soc.campaigns")
    per = max(CAMPAIGN_K_FLOOR, int(prevalence * n_vehicles / N_CAMPAIGNS))
    per = min(per, max(1, n_vehicles // N_CAMPAIGNS))
    kinds = [
        (EventSource.IDS, {"can_id": 0x0C9, "detector": "spec"}),
        (EventSource.DIAG, {"nrc": 0x35}),
        (EventSource.V2X, {"reason": "teleport"}),
        (EventSource.IDS, {"can_id": 0x244, "detector": "frequency"}),
    ]
    campaigns: List[AttackCampaign] = []
    # random.sample indexes the population, so a lazy range draws the
    # exact same vehicles as a materialized list -- and a 10^7-vehicle
    # fleet never allocates 10^7 int objects just to pick a few hundred.
    pool = range(n_vehicles)
    for i in range(N_CAMPAIGNS):
        source, extra = kinds[i % len(kinds)]
        indices = picker.sample(pool, per)
        campaigns.append(AttackCampaign(
            name=f"campaign-{i}",
            source=source,
            start_s=CAMPAIGN_START_S + 2.0 * i,
            targets=tuple(FleetModel.vehicle_id(j) for j in indices),
            rate_per_s=max(0.5, per / CAMPAIGN_SPREAD_S),
            **extra,
        ))
    return campaigns
