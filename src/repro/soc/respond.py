"""Closed-loop remediation: detections become fleet-wide countermeasures.

Scalas & Giacinto's point (PAPERS.md): on-board detection only pays off
when it closes the loop into response.  The orchestrator walks each
incident through the lifecycle on the simulation clock:

1. **triage** (analyst latency, :data:`TRIAGE_DELAY_S`);
2. **containment** (:data:`CONTAINMENT_DELAY_S`): author a DENY rule for the
   campaign signature, version-bump the central
   :class:`~repro.core.policy.SecurityPolicy`, export it as a
   CMAC-authenticated bundle and apply it through a real vehicle-side
   :class:`~repro.core.policy.PolicyEngine` (rollback-protected, exactly
   the §7 centralized-policy path), then halt the campaign's spread;
3. **remediation** (:data:`REMEDIATION_DELAY_S`): cut a patched firmware
   image and run an Uptane campaign -- full metadata verification via
   :mod:`repro.ota` for a sample of vehicles, modelled bookkeeping for
   the rest of the affected set.

Every closed incident yields a :class:`RemediationOutcome` carrying the
two numbers the E17 bench is scored on: detection-to-remediation latency
and blast radius averted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.policy import (
    PolicyDecision,
    PolicyEngine,
    PolicyRule,
    SecurityPolicy,
)
from repro.ecu.firmware import FirmwareImage, FirmwareStore
from repro.ota import DirectorRepository, ImageRepository, UptaneClient
from repro.sim import Simulator
from repro.soc.fleet import FleetModel
from repro.soc.incident import Incident, IncidentState

#: Simulated seconds from detection to triage, triage to containment,
#: and containment to remediation.
TRIAGE_DELAY_S = 0.5
CONTAINMENT_DELAY_S = 1.5
REMEDIATION_DELAY_S = 6.0
#: Vehicles per campaign that run full Uptane verification (the canary
#: ring); the rest of the affected set is modelled bookkeeping.
OTA_SAMPLE = 1


@dataclass(frozen=True)
class RemediationOutcome:
    """Scorecard for one remediated incident."""

    incident_id: str
    signature: str
    policy_version: int
    vehicles_patched: int
    ota_verified_sample: int
    detection_to_containment_s: float
    detection_to_remediation_s: float
    blast_radius: int
    blast_radius_averted: int


class ResponseOrchestrator:
    """Drives incidents from OPEN to REMEDIATED on the sim clock."""

    def __init__(
        self,
        sim: Simulator,
        fleet: FleetModel,
        update_key: bytes = b"soc-policy-key!!",
    ) -> None:
        self.sim = sim
        self.fleet = fleet

        base = SecurityPolicy(version=1, rules=[
            PolicyRule(frozenset(["*"]), frozenset(["*"]), frozenset(["*"]),
                       PolicyDecision.ALLOW, name="fleet-default"),
        ], default=PolicyDecision.ALLOW)
        # OEM backend authors updates; the reference vehicle-side engine
        # verifies the CMAC + version monotonicity of every push.
        self._update_key = update_key
        self.oem_engine = PolicyEngine(base, update_key)
        self.vehicle_engine = PolicyEngine(
            SecurityPolicy.deserialize(base.serialize()), update_key,
        )

        self._image_repo: Optional[ImageRepository] = None
        self._director: Optional[DirectorRepository] = None
        self._patch_version = 1
        self.outcomes: List[RemediationOutcome] = []
        self.policy_pushes = 0
        self.ota_results: Dict[str, int] = {"installed": 0, "failed": 0}

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def on_detection(self, incident: Incident) -> None:
        self.sim.schedule(TRIAGE_DELAY_S, self._triage, incident)

    def _triage(self, incident: Incident) -> None:
        if incident.state is not IncidentState.OPEN:
            return
        incident.advance(self.sim.now, IncidentState.TRIAGED)
        self.sim.schedule(CONTAINMENT_DELAY_S, self._contain, incident)

    def _contain(self, incident: Incident) -> None:
        if incident.state is not IncidentState.TRIAGED:
            return
        self._push_policy_block(incident.signature)
        self.fleet.contain(incident.signature, self.sim.now)
        incident.advance(self.sim.now, IncidentState.CONTAINED)
        self.sim.schedule(REMEDIATION_DELAY_S, self._remediate, incident)

    def _remediate(self, incident: Incident) -> None:
        if incident.state is not IncidentState.CONTAINED:
            return
        affected = self._affected_vehicles(incident.signature) | incident.vehicles
        verified = self._run_ota_campaign(incident.signature, affected)
        self.fleet.patch(incident.signature, affected)
        incident.advance(self.sim.now, IncidentState.REMEDIATED)
        self.outcomes.append(RemediationOutcome(
            incident_id=incident.incident_id,
            signature=incident.signature,
            policy_version=self.oem_engine.policy.version,
            vehicles_patched=len(affected),
            ota_verified_sample=verified,
            detection_to_containment_s=incident.time_to_containment_s or 0.0,
            detection_to_remediation_s=incident.time_to_remediation_s or 0.0,
            blast_radius=self.fleet.blast_radius(incident.signature),
            blast_radius_averted=self.fleet.blast_averted(incident.signature),
        ))

    # ------------------------------------------------------------------
    # Countermeasure paths
    # ------------------------------------------------------------------
    def _push_policy_block(self, signature: str) -> None:
        """Version-bump the central policy with a DENY for the signature
        and push the authenticated bundle through the vehicle engine."""
        current = self.oem_engine.policy
        block = PolicyRule(
            subjects=frozenset(["*"]),
            objects=frozenset([signature]),
            actions=frozenset(["*"]),
            decision=PolicyDecision.DENY,
            name=f"soc-block:{signature}",
        )
        candidate = SecurityPolicy(
            version=current.version + 1,
            rules=[block] + list(current.rules),
            default=current.default,
        )
        blob, tag = self.oem_engine.export_update(candidate, self._update_key)
        self.vehicle_engine.apply_update(blob, tag)
        self.oem_engine.policy = candidate
        self.oem_engine.update_history.append(candidate.version)
        self.policy_pushes += 1

    def _affected_vehicles(self, signature: str) -> Set[str]:
        campaign = self.fleet.campaigns.get(signature)
        if campaign is None:
            return set()
        # Patch everything the exploit could reach, not just confirmed
        # victims: the class-break means every target shares the flaw.
        return set(campaign.targets)

    def _ensure_ota(self) -> None:
        if self._director is None:
            self._image_repo = ImageRepository(seed=b"soc/image")
            self._director = DirectorRepository(seed=b"soc/director")

    def _make_vehicle_client(self, vehicle_id: str) -> UptaneClient:
        """Build one sample vehicle's Uptane client, pinned to the two
        repositories' root metadata (the factory trust anchors)."""
        assert self._image_repo is not None and self._director is not None
        store = FirmwareStore(FirmwareImage(
            "soc-patch", 1, b"factory", hardware_id="soc-ecu"))
        return UptaneClient(
            vehicle_id, store,
            image_root=self._image_repo.metadata["root"],
            director_root=self._director.metadata["root"],
        )

    def _run_ota_campaign(self, signature: str, affected: Set[str]) -> int:
        """Full Uptane verification for a sample; returns installs.

        The sample is a canary ring: if any sample vehicle *fails*
        Uptane verification, the campaign aborts immediately -- the
        remaining sample is never offered the image (a fleet-wide push
        of firmware that vehicles reject is worse than a late patch).
        Failures land in ``ota_results['failed']``, never silently.
        """
        if OTA_SAMPLE <= 0 or not affected:
            return 0
        self._ensure_ota()
        assert self._image_repo is not None and self._director is not None
        self._patch_version += 1
        image = FirmwareImage("soc-patch", self._patch_version,
                              f"patched:{signature}".encode(),
                              hardware_id="soc-ecu")
        now = self.sim.now
        self._image_repo.add_image(image, now)
        installed = 0
        for vehicle_id in sorted(affected)[:OTA_SAMPLE]:
            client = self._make_vehicle_client(vehicle_id)
            self._director.assign(vehicle_id, image, now)
            result = client.update(self._director, self._image_repo, now)
            if result.installed:
                installed += 1
                self.ota_results["installed"] += 1
            else:
                self.ota_results["failed"] += 1
                break
        return installed

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        averted = sum(o.blast_radius_averted for o in self.outcomes)
        d2r = [o.detection_to_remediation_s for o in self.outcomes]
        return {
            "policy_pushes": float(self.policy_pushes),
            "policy_version": float(self.oem_engine.policy.version),
            "incidents_remediated": float(len(self.outcomes)),
            "ota_installs": float(self.ota_results["installed"]),
            "ota_failures": float(self.ota_results["failed"]),
            "blast_radius_averted": float(averted),
            "mean_detection_to_remediation_s": (
                sum(d2r) / len(d2r) if d2r else 0.0
            ),
        }
