"""Incident lifecycle: what the SOC *does* with a detection.

A correlator verdict becomes an :class:`Incident` that walks a strict
state machine::

    OPEN ──► TRIAGED ──► CONTAINED ──► REMEDIATED
      │         │
      └─────────┴──────► FALSE_POSITIVE

Severity scoring follows the safety/security interplay of the paper's
§3: the base level is the worst ASIL among the triggering events (an IDS
alert on the powertrain bus outranks a V2X content lie), escalated one
level when the campaign's spread crosses ``escalation_spread`` vehicles
-- a class-break in progress is a fleet hazard even when each vehicle's
local hazard is moderate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from repro.core.safety import Asil
from repro.soc.correlate import CampaignDetection


class IncidentState(Enum):
    OPEN = "open"
    TRIAGED = "triaged"
    CONTAINED = "contained"
    REMEDIATED = "remediated"
    FALSE_POSITIVE = "false-positive"


_ALLOWED: Dict[IncidentState, Set[IncidentState]] = {
    IncidentState.OPEN: {IncidentState.TRIAGED, IncidentState.FALSE_POSITIVE},
    IncidentState.TRIAGED: {IncidentState.CONTAINED, IncidentState.FALSE_POSITIVE},
    IncidentState.CONTAINED: {IncidentState.REMEDIATED},
    IncidentState.REMEDIATED: set(),
    IncidentState.FALSE_POSITIVE: set(),
}


class InvalidTransition(RuntimeError):
    """Raised on a lifecycle step the state machine forbids."""


AMENDMENT_KINDS = ("confirm", "amend", "retract")


@dataclass(frozen=True)
class Amendment:
    """One reconciliation outcome for a provisional verdict.

    Optimistic federation (:mod:`repro.soc.federation`) emits verdicts
    past a stalled region's watermark; when the deterministic
    reconciliation pass replays the same records in canonical order it
    classifies every provisional verdict exactly once: ``confirm`` (the
    strict replay fired the identical detection), ``amend`` (it fired
    with different spread/timing -- the deltas are recorded here), or
    ``retract`` (it never fired; the provisional incident was a false
    page).  Amendments describe the *journey* from optimistic to strict
    state, so the hub journals them (``FederationHub.amendments``), never
    the tracker's canonical snapshot.  They change no incident: the
    swapped-in tracker already holds the strict outcome.
    """

    kind: str                      # one of AMENDMENT_KINDS
    signature: str
    t: float                       # reconciliation time
    incident_id: Optional[str] = None
    vehicles_added: int = 0
    vehicles_removed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in AMENDMENT_KINDS:
            raise ValueError(f"unknown amendment kind {self.kind!r}")


@dataclass
class Incident:
    """One fleet-level security incident."""

    incident_id: str
    signature: str
    opened_at: float
    severity: Asil
    state: IncidentState = IncidentState.OPEN
    vehicles: Set[str] = field(default_factory=set)
    history: List[Tuple[float, IncidentState]] = field(default_factory=list)
    base_severity: Optional[Asil] = None  # pre-escalation level
    #: Opened from an optimistic (pre-reconciliation) verdict.  The
    #: reconciliation swap replaces the whole tracker with the canonical
    #: replay's, whose incidents are never provisional.
    provisional: bool = False

    def __post_init__(self) -> None:
        if self.base_severity is None:
            self.base_severity = self.severity
        if not self.history:
            self.history.append((self.opened_at, IncidentState.OPEN))

    def advance(self, now: float, state: IncidentState) -> None:
        if state not in _ALLOWED[self.state]:
            raise InvalidTransition(
                f"{self.incident_id}: {self.state.value} -> {state.value}"
            )
        self.state = state
        self.history.append((now, state))

    def _entered(self, state: IncidentState) -> Optional[float]:
        for t, s in self.history:
            if s is state:
                return t
        return None

    @property
    def time_to_containment_s(self) -> Optional[float]:
        t = self._entered(IncidentState.CONTAINED)
        return None if t is None else t - self.opened_at

    @property
    def time_to_remediation_s(self) -> Optional[float]:
        t = self._entered(IncidentState.REMEDIATED)
        return None if t is None else t - self.opened_at

    @property
    def closed(self) -> bool:
        return self.state in (IncidentState.REMEDIATED, IncidentState.FALSE_POSITIVE)

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON-safe form (``vehicles`` sorted so equal
        incidents serialize byte-identically)."""
        return {
            "incident_id": self.incident_id,
            "signature": self.signature,
            "opened_at": self.opened_at,
            "severity": int(self.severity),
            "state": self.state.value,
            "vehicles": sorted(self.vehicles),
            "history": [[t, s.value] for t, s in self.history],
            "base_severity": int(self.base_severity),
            "provisional": self.provisional,
        }

    @classmethod
    def from_dict(cls, obj: Dict[str, object]) -> "Incident":
        return cls(
            incident_id=obj["incident_id"],
            signature=obj["signature"],
            opened_at=obj["opened_at"],
            severity=Asil(obj["severity"]),
            state=IncidentState(obj["state"]),
            vehicles=set(obj["vehicles"]),
            history=[(t, IncidentState(s)) for t, s in obj["history"]],
            base_severity=Asil(obj["base_severity"]),
            provisional=bool(obj.get("provisional", False)),
        )


class IncidentTracker:
    """Opens incidents from detections; aggregates lifecycle metrics."""

    def __init__(self, escalation_spread: int = 25) -> None:
        self.escalation_spread = escalation_spread
        self.incidents: Dict[str, Incident] = {}          # by incident id
        self._by_signature: Dict[str, Incident] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    def score(self, base: Asil, spread: int) -> Asil:
        """Base ASIL, bumped one level at fleet-scale spread."""
        level = int(base)
        if spread >= self.escalation_spread:
            level += 1
        return Asil(min(int(Asil.D), max(int(Asil.A), level)))

    def open_from_detection(self, detection: CampaignDetection,
                            base_severity: Asil = Asil.B,
                            provisional: bool = False) -> Incident:
        if detection.signature in self._by_signature:
            return self._by_signature[detection.signature]
        self._counter += 1
        incident = Incident(
            incident_id=f"INC-{self._counter:05d}",
            signature=detection.signature,
            opened_at=detection.detect_time,
            severity=self.score(base_severity, detection.spread),
            vehicles=set(detection.vehicles),
            base_severity=base_severity,
            provisional=provisional,
        )
        self.incidents[incident.incident_id] = incident
        self._by_signature[detection.signature] = incident
        return incident

    def incident_for(self, signature: str) -> Optional[Incident]:
        return self._by_signature.get(signature)

    def attach_vehicle(self, signature: str, vehicle_id: str) -> None:
        incident = self._by_signature.get(signature)
        if incident is not None and not incident.closed:
            incident.vehicles.add(vehicle_id)
            # Always score from the pre-escalation base so spread growth
            # bumps exactly one level, never compounds per attachment.
            bumped = self.score(incident.base_severity or incident.severity,
                                len(incident.vehicles))
            if bumped > incident.severity:
                incident.severity = bumped

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Canonical JSON-safe dump of every incident plus the id
        counter (incident ids must keep incrementing across a restart)."""
        return {
            "escalation_spread": self.escalation_spread,
            "counter": self._counter,
            "incidents": [
                self.incidents[iid].as_dict()
                for iid in sorted(self.incidents)
            ],
        }

    @classmethod
    def from_snapshot(cls, state: Dict[str, object]) -> "IncidentTracker":
        tracker = cls(escalation_spread=state["escalation_spread"])
        tracker._counter = state["counter"]
        for obj in state["incidents"]:
            incident = Incident.from_dict(obj)
            tracker.incidents[incident.incident_id] = incident
            tracker._by_signature[incident.signature] = incident
        return tracker

    # ------------------------------------------------------------------
    def mean_time_to_containment_s(self) -> float:
        times = [
            i.time_to_containment_s for i in self.incidents.values()
            if i.time_to_containment_s is not None
        ]
        return sum(times) / len(times) if times else 0.0
