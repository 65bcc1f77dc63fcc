"""Normalized fleet security telemetry: the VSOC event model.

Every in-vehicle security mechanism in this repository produces its own
alert shape -- :class:`repro.ids.base.Alert`, V2X
:class:`~repro.v2x.misbehavior.MisbehaviorReport`, UDS SecurityAccess
negative responses.  A fleet backend cannot correlate across vehicles
(let alone across sources) until those are normalized into one schema;
this module is that schema plus the per-source constructors (gateway
quarantine events come straight from :func:`make_event`).

``SecurityEvent`` is a named tuple in the canonical log order with a
``str``-enum source and an ``int``-enum severity, so ``json.dumps``
writes it as exactly the JSON array that the wire, the durable log and
federation shipments carry; :func:`event_from_obj` is the one decoder
back, and it validates every field.  Being a tuple, an event equals an
equal plain tuple, and ``EventSource.IDS == "ids"``.  ``event_id`` is
derived deterministically from (vehicle, source, signature, time,
sequence) so a re-run of the same seeded simulation produces
byte-identical ids -- the property the dedup/correlation tests and the
E17 determinism guarantee rest on.
"""

from __future__ import annotations

import hashlib
import math
from enum import Enum
from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple

from repro.core.safety import Asil


class EventSource(str, Enum):
    """Which on-vehicle mechanism produced the telemetry (a ``str`` enum,
    so an event's source encodes as its value)."""

    IDS = "ids"
    V2X = "v2x"
    GATEWAY = "gateway"
    DIAG = "diag"


#: Default severity per source, derived from the DEFAULT_HAZARDS each
#: mechanism guards (see repro.core.safety): an IDS alert on a safety bus
#: implies a can-spoof hazard (ASIL D), a gateway quarantine implies a
#: silenced domain (ASIL C), a diagnostics break-in can stage malicious
#: firmware (ASIL B), and V2X content lies are driver-controllable (floor
#: at ASIL A -- security events are never QM).
DEFAULT_SOURCE_SEVERITY: Mapping[EventSource, Asil] = {
    EventSource.IDS: Asil.D,
    EventSource.GATEWAY: Asil.C,
    EventSource.DIAG: Asil.B,
    EventSource.V2X: Asil.A,
}


#: Signature namespace -> originating source.  Every adapter below (and
#: the workload generator's ambient/noise signatures) prefixes its
#: correlation key with the producing mechanism, so a fleet-wide verdict
#: that no longer carries a triggering event (e.g. a merged cross-shard
#: detection) can still recover the source family for severity scoring.
_SIGNATURE_SOURCE_PREFIXES: Tuple[Tuple[str, "EventSource"], ...] = (
    ("ids.", EventSource.IDS),
    ("v2x.", EventSource.V2X),
    ("diag.", EventSource.DIAG),
    ("gateway.", EventSource.GATEWAY),
    ("ambient.", EventSource.GATEWAY),   # shared fleet telemetry patterns
    ("noise.", EventSource.V2X),         # per-vehicle one-off noise
)


def source_for_signature(signature: str) -> Optional["EventSource"]:
    """Recover the producing :class:`EventSource` from a signature's
    namespace prefix; ``None`` for unknown namespaces (a verdict's base
    severity then falls back to ASIL A)."""
    for prefix, source in _SIGNATURE_SOURCE_PREFIXES:
        if signature.startswith(prefix):
            return source
    return None


def make_event_id(vehicle_id: str, source: "EventSource", signature: str,
                  time: float, seq: int) -> str:
    """Deterministic 16-hex-char event id."""
    material = f"{vehicle_id}|{source.value}|{signature}|{time:.9f}|{seq}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


class CorruptRecord(RuntimeError):
    """Bytes that fail framing, CRC or the event schema: a record before
    the log's recoverable tail, a wire payload, or a shipment."""


class SecurityEvent(NamedTuple):
    """One normalized telemetry record as the VSOC ingests it.

    ``signature`` is the cross-fleet correlation key: two vehicles hit by
    the same attack tooling report the same signature (the paper's §4.2
    class-break made observable).  ``detail`` is a tuple of key/value
    pairs with JSON-scalar values, so events stay hashable.
    """

    event_id: str
    time: float
    vehicle_id: str
    source: EventSource
    signature: str
    severity: Asil = Asil.A
    detail: Tuple[Tuple[str, Any], ...] = ()


_SOURCES: Dict[str, EventSource] = {s.value: s for s in EventSource}
_SEVERITIES: Dict[int, Asil] = {int(a): a for a in Asil}
_SCALARS = (str, int, float, bool, type(None))


def _detail_pair(pair: Any) -> Tuple[str, Any]:
    if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not str:
        raise CorruptRecord("malformed event detail pair")
    key, value = pair
    kind = type(value)
    if kind not in _SCALARS or (kind is float and not math.isfinite(value)):
        raise CorruptRecord("event detail value is not a finite JSON scalar")
    return key, value


def event_from_obj(obj: Any) -> SecurityEvent:
    """Decode one event from its JSON array (wire, log and shipment
    share the form), checking every field: string ids, vehicle and
    signature; a finite ``int``/``float`` time (stored as ``float``); a
    known source; an ``int`` severity within :class:`Asil`; and a list of
    ``[str, JSON scalar]`` detail pairs.  Booleans are not numbers here.
    Any violation raises :class:`CorruptRecord`."""
    if type(obj) is not list or len(obj) != 7:
        raise CorruptRecord("an event is a JSON array of 7 fields")
    event_id, t, vehicle_id, source, signature, severity, detail = obj
    if type(t) is int:
        try:
            t = float(t)
        except OverflowError:  # outside float range: not a finite time
            t = math.inf
    if (type(event_id) is not str or type(vehicle_id) is not str
            or type(signature) is not str or type(source) is not str
            or type(severity) is not int or type(detail) is not list
            or type(t) is not float or not math.isfinite(t)):
        raise CorruptRecord("event field of the wrong type or not finite")
    source = _SOURCES.get(source)
    severity = _SEVERITIES.get(severity)
    if source is None or severity is None:
        raise CorruptRecord("unknown event source or severity")
    return SecurityEvent(event_id, t, vehicle_id, source, signature,
                         severity,
                         tuple(map(_detail_pair, detail)) if detail else ())


def _freeze(detail: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    if not detail:
        return ()
    return tuple(sorted(detail.items()))


def make_event(
    vehicle_id: str,
    source: EventSource,
    signature: str,
    time: float,
    seq: int,
    severity: Optional[Asil] = None,
    detail: Optional[Mapping[str, Any]] = None,
) -> SecurityEvent:
    """General constructor; severity defaults per source."""
    if severity is None:
        severity = DEFAULT_SOURCE_SEVERITY[source]
    return SecurityEvent(
        event_id=make_event_id(vehicle_id, source, signature, time, seq),
        time=time,
        vehicle_id=vehicle_id,
        source=source,
        signature=signature,
        severity=severity,
        detail=_freeze(detail),
    )


# ----------------------------------------------------------------------
# Per-source adapters.  Each takes the mechanism's native alert object and
# a monotonically increasing per-vehicle sequence number (duplicate
# suppression is the correlator's job; the adapters only normalize).
# ----------------------------------------------------------------------

def from_ids_alert(vehicle_id: str, alert: Any, seq: int,
                   severity: Optional[Asil] = None) -> SecurityEvent:
    """Normalize a :class:`repro.ids.base.Alert`.

    The signature folds in the detector family and the CAN id under
    attack -- the pair that recurs fleet-wide when one exploit is replayed
    against a vehicle class.
    """
    signature = f"ids.{alert.detector}:{alert.can_id:#05x}"
    return make_event(
        vehicle_id, EventSource.IDS, signature, alert.time, seq,
        severity=severity,
        detail={"reason": alert.reason, "score": alert.score},
    )


def from_misbehavior_report(report: Any, seq: int,
                            severity: Optional[Asil] = None) -> SecurityEvent:
    """Normalize a V2X :class:`~repro.v2x.misbehavior.MisbehaviorReport`.

    The *reporter* is the telemetry source vehicle; the accused pseudonym
    travels in the detail payload (the SOC, unlike the road-side
    authority, correlates on the misbehavior class, not the pseudonym).
    """
    category = report.reason.split(":", 1)[0].split(",", 1)[0].strip()
    signature = f"v2x.misbehavior:{category}"
    return make_event(
        report.reporter, EventSource.V2X, signature, report.time, seq,
        severity=severity,
        detail={"accused": report.accused_subject, "reason": report.reason},
    )


def from_uds_security_failure(vehicle_id: str, time: float, nrc: int,
                              seq: int,
                              severity: Optional[Asil] = None) -> SecurityEvent:
    """Normalize a UDS SecurityAccess failure (0x27 invalidKey / lockout).

    Repeated invalid-key responses across many vehicles are the classic
    footprint of a leaked-then-patched seed/key algorithm being brute
    tried fleet-wide (E15's attack chain at scale).
    """
    signature = f"diag.security_access:nrc{nrc:#04x}"
    return make_event(
        vehicle_id, EventSource.DIAG, signature, time, seq,
        severity=severity,
        detail={"nrc": nrc, "target_ecu": "?"},
    )
