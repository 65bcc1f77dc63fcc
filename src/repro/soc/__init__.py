"""Fleet-scale Vehicle Security Operations Center (VSOC).

The paper's state-of-practice section ends where the vehicle does:
centralized security policy and in-field extensibility (§7) presuppose a
*backend* that watches the fleet, recognizes when one vehicle's incident
is actually a class-break in progress (§4.2), and pushes the fix back
out.  This package is that backend:

- :mod:`repro.soc.events` -- the normalized telemetry schema (one tuple
  that wire, log and shipments encode as-is, and its one validating
  decoder) plus adapters from every on-vehicle alert source (IDS, V2X
  misbehavior, gateway quarantine, UDS SecurityAccess failures).
- :mod:`repro.soc.ingest` -- bounded-queue ingestion with batching,
  explicit load-shedding policies, and a backpressure signal: one
  pipeline of N shard queues drained round-robin from a worker pool
  with a shared capacity budget (N=1 by default).
- :mod:`repro.soc.shard` -- the pluggable per-signature/per-region
  shard keys, plus the :class:`~repro.soc.shard.ConservationAudit` that
  re-proves the shed/backpressure accounting per shard and globally
  after every pump.
- :mod:`repro.soc.correlate` -- sliding-window cross-vehicle
  correlation: per-vehicle dedup, duplicate/late-event hygiene, and
  k-vehicles-in-window campaign detection.  Every drained batch reaches
  it by one route, a batch sink into
  :meth:`~repro.soc.correlate.CorrelationEngine.observe_batch`.
- :mod:`repro.soc.incident` -- the incident lifecycle state machine with
  ASIL-based severity scoring.
- :mod:`repro.soc.respond` -- closed-loop remediation: authenticated
  central-policy pushes (:mod:`repro.core.policy`) and Uptane OTA
  campaigns (:mod:`repro.ota`), scored by detection-to-remediation
  latency and blast radius averted.
- :mod:`repro.soc.fleet` -- O(events) fleet workload generator (benign
  noise, seeded attack campaigns, re-emissions) for 10^2..10^5 vehicles
  scalar, 10^6+ via the numpy-vectorized path.
- :mod:`repro.soc.store` -- durable substrate: a segmented append-only
  CRC-framed event log with a sparse time index for forensics scans,
  plus atomic, CRC-guarded snapshots of the analytic state; recovery is
  snapshot + log-suffix replay (:func:`~repro.soc.center.recover_soc_state`),
  differential-tested byte-identical to an uninterrupted run.
- :mod:`repro.soc.center` -- the facade wiring it all together.
- :mod:`repro.soc.federation` -- multi-region federation: per-region
  SOCs ship their durable log-segment streams (CRC-framed shipments
  over a lag/reorder/duplicate/outage channel model) to a
  :class:`~repro.soc.federation.FederationHub` whose watermark-gated
  replay makes the fleet-wide campaign verdicts independent of delivery
  interleaving -- differential-tested identical to a single global SOC
  fed the union stream.  ``consistency="optimistic"`` trades the stall
  during a partition for provisional verdicts plus a deterministic
  reconciliation (confirm/amend/retract amendments) that restores
  byte-identity with the strict gate.
- :mod:`repro.soc.chaos` -- seeded fault injection: a declarative
  :class:`~repro.soc.chaos.FaultPlan` (region outages, WAN degradation,
  torn shipments, worker SIGKILLs) driven against a live federated
  scene or ingest service with conservation / byte-identity /
  zero-ACK-loss invariant probes at every heal point.

- :mod:`repro.soc.service` -- the network front door: an asyncio TCP
  ingest server speaking the log's ``u32len|CRC32`` frame codec, with
  explicit SUPPRESS/RESUME backpressure and credit-based flow control
  (:class:`~repro.soc.service.VehicleClient`), fanning connections out
  to shard worker *processes* -- each owning a full pipeline +
  correlator + durable store, individually crash-recoverable via
  :func:`~repro.soc.service.recover_worker` -- so ingest scales past
  the GIL.  The front door is hardened: optional CMAC-authenticated
  sessions (HELLO/CHALLENGE/AUTH handshake plus per-batch tag trailers
  verified by the owning worker, keys derived per vehicle via
  :func:`~repro.soc.service.derive_session_key`), per-client byte
  quotas (:class:`~repro.soc.ingest.TokenBucket` with hard REFUSED
  frames and flood disconnect), and a supervisor that auto-restarts
  SIGKILLed workers (snapshot + log-suffix replay + journal-deduped
  handoff resubmission) without losing a single admitted-batch ACK.

Experiment E17 (:mod:`repro.experiments.e17_soc`) sweeps fleet size and
attack prevalence over this stack; E18
(:mod:`repro.experiments.e18_federation`) sweeps cross-region detection
latency against shipping lag, including a partition/heal cell; E19
(:mod:`repro.experiments.e19_service`) measures sustained service
ingest eps and p99 ACK latency versus worker-process count; E20
(:mod:`repro.experiments.e20_hardening`) prices the hardening --
authenticated-vs-plain throughput, honest goodput under a hostile
flood, and worker MTTR with a byte-identical restart differential.
"""

from repro.soc.events import (
    DEFAULT_SOURCE_SEVERITY,
    CorruptRecord,
    EventSource,
    SecurityEvent,
    from_gateway_record,
    from_ids_alert,
    from_misbehavior_report,
    from_uds_security_failure,
    make_event,
    make_event_id,
    source_for_signature,
)
from repro.soc.ingest import (
    BoundedQueue,
    IngestPipeline,
    ShedPolicy,
    StageStats,
    TokenBucket,
)
from repro.soc.shard import (
    ConservationAudit,
    ConservationError,
    ShardKeyFn,
    region_shard_key,
    signature_shard_key,
)
from repro.soc.batch_arrays import StringInterner, build_batch
from repro.soc.correlate import (
    CampaignDetection,
    CorrelationEngine,
    GlobalCampaignMerger,
    ReferenceCorrelationEngine,
    k_for_fleet_size,
)
from repro.soc.incident import (
    AMENDMENT_KINDS,
    Amendment,
    Incident,
    IncidentState,
    IncidentTracker,
    InvalidTransition,
)
from repro.soc.respond import RemediationOutcome, ResponseOrchestrator
from repro.soc.fleet import (
    VECTORIZE_THRESHOLD,
    AttackCampaign,
    FleetModel,
    FleetWorkloadGenerator,
    poisson_draw,
    seeded_campaigns,
)
from repro.soc.store import (
    DurableStore,
    EventLog,
    LogRecord,
    ScanHit,
    SnapshotStore,
    decode_event,
    encode_event,
)
from repro.soc.center import (
    RecoveredAnalytics,
    SecurityOperationsCenter,
    recover_soc_state,
)
from repro.soc.federation import (
    FederationHub,
    SegmentReceiver,
    SegmentShipper,
    Shipment,
    ShippingChannel,
    decode_shipment,
    encode_shipment,
)
from repro.soc.chaos import (
    FAULT_KINDS,
    ChaosInvariantViolation,
    Fault,
    FaultPlan,
    FederationChaosRunner,
    ServiceChaosRunner,
)
from repro.soc.service import (
    BATCH_TAG_LEN,
    FrameStreamDecoder,
    IngestServer,
    IngestService,
    ServiceConfig,
    VehicleClient,
    WorkerCore,
    auth_tag,
    batch_tag,
    derive_session_key,
    recover_worker,
    seal_payload,
    serve,
    shard_for_client,
)

__all__ = [
    "DEFAULT_SOURCE_SEVERITY",
    "EventSource",
    "SecurityEvent",
    "from_gateway_record",
    "from_ids_alert",
    "from_misbehavior_report",
    "from_uds_security_failure",
    "make_event",
    "make_event_id",
    "source_for_signature",
    "BoundedQueue",
    "IngestPipeline",
    "ShedPolicy",
    "StageStats",
    "TokenBucket",
    "ConservationAudit",
    "ConservationError",
    "ShardKeyFn",
    "region_shard_key",
    "signature_shard_key",
    "StringInterner",
    "build_batch",
    "CampaignDetection",
    "CorrelationEngine",
    "GlobalCampaignMerger",
    "ReferenceCorrelationEngine",
    "k_for_fleet_size",
    "AMENDMENT_KINDS",
    "Amendment",
    "Incident",
    "IncidentState",
    "IncidentTracker",
    "InvalidTransition",
    "RemediationOutcome",
    "ResponseOrchestrator",
    "VECTORIZE_THRESHOLD",
    "AttackCampaign",
    "FleetModel",
    "FleetWorkloadGenerator",
    "poisson_draw",
    "seeded_campaigns",
    "CorruptRecord",
    "DurableStore",
    "EventLog",
    "LogRecord",
    "ScanHit",
    "SnapshotStore",
    "decode_event",
    "encode_event",
    "RecoveredAnalytics",
    "SecurityOperationsCenter",
    "recover_soc_state",
    "FederationHub",
    "SegmentReceiver",
    "SegmentShipper",
    "Shipment",
    "ShippingChannel",
    "decode_shipment",
    "encode_shipment",
    "FAULT_KINDS",
    "ChaosInvariantViolation",
    "Fault",
    "FaultPlan",
    "FederationChaosRunner",
    "ServiceChaosRunner",
    "BATCH_TAG_LEN",
    "FrameStreamDecoder",
    "IngestServer",
    "IngestService",
    "ServiceConfig",
    "VehicleClient",
    "WorkerCore",
    "auth_tag",
    "batch_tag",
    "derive_session_key",
    "recover_worker",
    "seal_payload",
    "serve",
    "shard_for_client",
]
