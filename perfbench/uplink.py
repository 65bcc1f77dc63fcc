"""``uplink-plain`` and ``uplink-auth``: telematics gateways -> TCP -> VSOC.

The load runs in this process; the service runs in ``host.py`` (its
asyncio frontend plus one shard worker process).  Each connection is a
gateway multiplexing events from many vehicles through a
:class:`~repro.soc.service.VehicleClient`.  A run generates and
pre-encodes (and, for ``uplink-auth``, pre-seals) the warm-up and
closed-loop batches, then plays ``ROUNDS`` rounds.  Each round:

1. runs the closed loop on a fresh service: every connection keeps its
   credit window full until the same fixed set of batches is acked, in
   ``CLOSED_BURSTS`` bursts with a reading of the host's speed between;
2. runs an open loop on another fresh service: batches pre-encoded with
   their scheduled send time go out on schedule at a fixed offered rate,
   each timed from its scheduled time to its ACK.  Once every batch is
   acked, the idle worker's store is copied: the image a crash at that
   moment would leave;
3. restarts that worker's state from the crash image
   ``RESTARTS_PER_ROUND`` times, and ships one loop's worker log
   (``UplinkSpec.hub_log``) to fresh ``FederationHub``s, about
   ``HUB_EVENTS_PER_ROUND`` events in all.

Every service's ``setup_s`` runs from construction to the first warm-up
ACK on every connection.  The service's worker runs alone on one vCPU
(``worker_cpu``); its frontend and this process share the other.  Every
timed piece but the open loop's is scaled to the host's full speed with
readings of it taken around the piece while the service is idle
(``common.HostSpeed``): the closed loop by the worker's vCPU, which
bounds its throughput, set-up by both, and the in-process pieces, pinned
to one vCPU, by that one.  Open-loop latency is not scaled: on the
reference host it read the same in fast and slow stretches.

The checks: acked == sent per service,
frontend/worker tie-out (in ``host.py`` and here), detected campaigns ==
planted ones (closed loops: ``recover_worker`` after shutdown; open
loops: the crash-image restart), the restart's analytic state
byte-identical to the one the worker saved at shutdown, and the hub's
verdicts equal to the worker's.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.soc import (
    DurableStore,
    ServiceConfig,
    VehicleClient,
    WorkerCore,
    derive_session_key,
    recover_worker,
    seal_payload,
)
from repro.soc.service import encode_batch, worker_root

import common
import traffic

HERE = Path(__file__).resolve().parent

GATEWAYS = 2
VEHICLES_PER_GATEWAY = 2000
WARMUP_BATCH_EVENTS = 50
#: Rounds per run; every timed metric is a median over pieces from all
#: of them.
ROUNDS = 5
#: Each round's closed loop is sent in this many bursts; every burst is
#: acked in full before the next starts, and each is one timed piece.
CLOSED_BURSTS = 8
#: Open-loop batches are grouped by due time into windows this long;
#: each window's median latency is one piece of ``tail.ack_p50_ms``.
LATENCY_WINDOW_S = 0.25
#: The open loop's first due time lies this far ahead of the expected
#: end of its encoding.
OPEN_LEAD_S = 0.1
#: Event time the closed loop's backlog covers (a buffered-telemetry upload).
CLOSED_SPAN_S = 60.0
#: Share of ``--seconds`` for the closed loops; the open loops get the rest.
CLOSED_SHARE = 0.5
#: Restart pieces per round.
RESTARTS_PER_ROUND = 6
#: Each round ships one worker's log to fresh hubs until about this many
#: events have been applied.
HUB_EVENTS_PER_ROUND = 15_000
CAMPAIGNS_PER_PHASE = 3


@dataclass(frozen=True)
class UplinkSpec:
    """Workload constants.  ``closed_eps`` sizes the closed loops (over
    all rounds they send ``closed_eps * seconds * CLOSED_SHARE`` events,
    about that share of the run on the reference host) in backlog
    batches of ``closed_batch_events``; ``open_eps`` is the fixed
    offered rate of the open loops, which last the rest of ``seconds``
    in all, in live-telemetry batches of ``open_batch_events``.  Authenticated
    batches are smaller, so that a connection's eight credits hold
    under a tenth of a second of the worker's time rather than
    seconds, and ACKs return often enough to time.  ``hub_log`` names
    the loop whose worker log the hubs replay: the one of a few thousand
    events, so that each round times several hubs."""

    name: str
    authenticated: bool
    closed_eps: float
    closed_batch_events: int
    open_eps: float
    open_batch_events: int
    hub_log: str


PLAIN = UplinkSpec("uplink-plain", False, closed_eps=50_000.0, closed_batch_events=250,
                   open_eps=5_000.0, open_batch_events=50, hub_log="open")
AUTH = UplinkSpec("uplink-auth", True, closed_eps=3_000.0, closed_batch_events=10,
                  open_eps=500.0, open_batch_events=5, hub_log="closed")


def worker_cpu(speed: common.HostSpeed) -> int:
    """The vCPU the service's worker runs on alone."""
    return speed.cpus[-1]


class Host:
    """The service host process and its line protocol."""

    def __init__(self, checkout: Path) -> None:
        # Its own session, so a hung host is killed with its workers.
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "host.py")], cwd=str(checkout),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)

    def call(self, **msg) -> Dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"service host exited during {msg['cmd']!r}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"cmd": "exit"}) + "\n")
                self.proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()


@dataclass
class Gateway:
    """One connection's identity and its pre-encoded batches."""

    client_id: str
    session_key: Optional[bytes]
    warmup: bytes = b""
    closed: List[bytes] = field(default_factory=list)
    open: List[bytes] = field(default_factory=list)
    open_due: List[float] = field(default_factory=list)

    def encode(self, batch_id: int, events) -> bytes:
        payload = encode_batch(batch_id, events)
        if self.session_key is not None:
            payload = seal_payload(self.session_key, self.client_id, payload)
        return payload


@dataclass
class Measured:
    """One measured service: its phase, its clients' traffic in send
    order (warm-up first) and what the host reported at its stop."""

    phase: str
    root: Path
    planted: Set[str]
    client_ids: List[str]
    sealed: bool
    sends: List[Tuple[int, bytes]] = field(default_factory=list)  # (gateway, payload)
    due: int = 0
    acked: int = 0
    stopped: Dict = field(default_factory=dict)


def batches_of(events, size: int):
    return [events[i:i + size] for i in range(0, len(events), size)]


async def start_service(host: Host, gws: List[Gateway], root: Path,
                        fleet_key: Optional[bytes],
                        speed: common.HostSpeed) -> Tuple[List[VehicleClient], float]:
    """Build a service and warm it up; returns its clients and the time
    from construction to the first warm-up ACK on every connection,
    scaled by the host's speed before and after."""
    before = speed.read(speed.cpus)
    started = await asyncio.to_thread(host.call, cmd="start", root=str(root),
                                      fleet_key=fleet_key.hex() if fleet_key else None,
                                      worker_cpu=worker_cpu(speed),
                                      frontend_cpu=speed.cpus[0])
    clients = [VehicleClient(g.client_id, port=started["port"], session_key=g.session_key)
               for g in gws]
    await asyncio.gather(*(c.connect() for c in clients))
    await asyncio.gather(*(c.send_payload(g.warmup, n_events=WARMUP_BATCH_EVENTS)
                           for c, g in zip(clients, gws)))
    await asyncio.gather(*(c.drain() for c in clients))
    setup_s = time.monotonic() - started["t_construct"]
    return clients, setup_s * (before + speed.read(speed.cpus)) / 2


async def stop_service(host: Host, clients: List[VehicleClient],
                       measured: Optional[Measured]) -> None:
    sent = sum(c.events_sent for c in clients)
    acked = sum(c.events_accepted for c in clients)
    if acked != sent:
        raise common.CheckFailed(f"{acked} events acked of {sent} sent")
    await asyncio.gather(*(c.close() for c in clients))
    stopped = await asyncio.to_thread(host.call, cmd="stop")
    if measured is not None:
        measured.acked = acked
        measured.stopped = stopped


async def send_all(client: VehicleClient, payloads: List[bytes], batch_events: int,
                   gateway: int, measured: Measured) -> None:
    for payload in payloads:
        await client.send_payload(payload, n_events=batch_events)
        measured.sends.append((gateway, payload))
    await client.drain()


async def closed_loop(clients: List[VehicleClient], gws: List[Gateway], batch_events: int,
                      measured: Measured, speed: common.HostSpeed) -> List[float]:
    """Every connection keeps its credit window full until its batches
    are acked, burst by burst; returns each burst's acked events per
    scaled second."""
    rates = []
    batches = len(gws[0].closed)
    cpus = [worker_cpu(speed)]
    reading = speed.read(cpus)
    for k in range(CLOSED_BURSTS):
        lo, hi = k * batches // CLOSED_BURSTS, (k + 1) * batches // CLOSED_BURSTS
        acked = sum(c.events_accepted for c in clients)
        t0 = time.monotonic()
        await asyncio.gather(*(send_all(c, gw.closed[lo:hi], batch_events, g, measured)
                               for g, (c, gw) in enumerate(zip(clients, gws))))
        seconds = time.monotonic() - t0
        previous, reading = reading, speed.read(cpus)
        acked = sum(c.events_accepted for c in clients) - acked
        rates.append(acked / (seconds * (previous + reading) / 2))
    return rates


async def open_loop(client: VehicleClient, gw: Gateway, gateway: int, mono_of,
                    batch_events: int, measured: Measured, samples: Dict[str, list],
                    latency: List[Tuple[float, float]]) -> None:
    """Send each batch at its scheduled time; record generator lateness,
    credit wait and, per batch, its due time and its (scheduled send ->
    ACK) latency."""
    first = len(client.rtts_s)
    sent_at: List[float] = []
    dues: List[float] = []
    for payload, due_wall in zip(gw.open, gw.open_due):
        due = mono_of(due_wall)
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        ready = time.monotonic()
        await client.send_payload(payload, n_events=batch_events)
        sent = time.monotonic()
        measured.sends.append((gateway, payload))
        samples["late"].append(max(0.0, ready - due))
        samples["credit_wait"].append(sent - ready)
        sent_at.append(sent)
        dues.append(due_wall)
    await client.drain()
    # One shard worker processes a connection's batches in order, so its
    # ACKs (and VehicleClient's RTT list) arrive in send order.
    rtts = client.rtts_s[first:]
    if len(rtts) != len(sent_at):
        raise common.CheckFailed(
            f"{client.client_id}: {len(rtts)} ACKs for {len(sent_at)} open-loop batches")
    latency.extend((d, s + r - mono_of(d)) for s, r, d in zip(sent_at, rtts, dues))


def window_p50s(latency: List[Tuple[float, float]], t_open: float) -> List[float]:
    """The median latency of the batches due in each ``LATENCY_WINDOW_S``
    window of the schedule."""
    windows: Dict[int, List[float]] = {}
    for due, lat in latency:
        windows.setdefault(int((due - t_open) / LATENCY_WINDOW_S), []).append(lat)
    return [common.median(v) for v in windows.values()]


def encode_open(spec: UplinkSpec, seconds: float, rng, fleet, gws: List[Gateway],
                enc_s_per_event: float) -> Tuple[int, Set[str], float]:
    """Generate and pre-encode one round's open loop with its scheduled
    send times; the schedule starts ``OPEN_LEAD_S`` after encoding is
    expected to end, with a margin of 3x for a slow stretch of the
    host."""
    size = spec.open_batch_events
    batch_rate = spec.open_eps / size
    batches = max(GATEWAYS, int(batch_rate * seconds * (1.0 - CLOSED_SHARE) / ROUNDS))
    t_open = time.time() + OPEN_LEAD_S + 3.0 * enc_s_per_event * batches * size
    due, stamps = traffic.open_loop_stamps(batches, size, GATEWAYS, t_open, batch_rate)
    events, planted = traffic.uplink_phase(rng, fleet, "open", stamps, CAMPAIGNS_PER_PHASE)
    for g, gw in enumerate(gws):
        gw.open = [gw.encode(1 + b, ev)
                   for b, ev in enumerate(batches_of(events[g], size))]
        gw.open_due = due[g]
    return batches * size, planted, t_open


def crash_image(root: Path, image: Path) -> None:
    """Copy the worker's store while its service runs idle with every
    batch acked (each pump syncs its log before reporting): what a crash
    at that moment would leave on disk."""
    shutil.copytree(worker_root(root, 0), worker_root(image, 0))


def restarts(m: Measured, image: Path, live: str, speed: common.HostSpeed) -> List[float]:
    """Restart an open-loop worker's state from its crash image
    ``RESTARTS_PER_ROUND`` times: its latest snapshot (snapshot 0, since
    a round is too short for a periodic one) plus its whole log.
    Returns each restart's scaled seconds."""
    with speed.pinned():
        states, recover_s = speed.timed_all(
            [(common.restart, worker_root(image, 0))] * RESTARTS_PER_ROUND)
    for recovered in states:
        if recovered.flagged_signatures() != m.planted:
            raise common.CheckFailed(
                f"{m.phase}: restart detected {sorted(recovered.flagged_signatures())} "
                f"!= planted {sorted(m.planted)}")
        if common.canonical(recovered.analytics_snapshot()) != live:
            raise common.CheckFailed(
                f"{m.phase}: restarted state differs from the worker's at shutdown")
    return recover_s


def hub_piece(m: Measured, profile, seed: int, speed: common.HostSpeed) -> float:
    """Ship a worker's log to a fresh hub; returns the hub's
    events applied per scaled second."""
    store = DurableStore(worker_root(m.root, 0))
    try:
        with speed.pinned():
            hub = common.ship_to_hub({m.phase: store}, profile, seed, speed=speed)
    finally:
        store.close()
    if hub["flagged"] != m.planted:
        raise common.CheckFailed(
            f"hub flagged {sorted(hub['flagged'])} != the worker's {sorted(m.planted)}")
    return m.acked / hub["apply_s"]


def check_closed(m: Measured) -> None:
    """The closed-loop worker's verdicts, from ``recover_worker`` on its
    store after shutdown."""
    recovered = recover_worker(m.root, 0)
    flagged = recovered.flagged_signatures()
    if flagged != m.planted:
        raise common.CheckFailed(f"{m.phase}: detected campaigns {sorted(flagged)} "
                                 f"!= planted {sorted(m.planted)}")


def check_tie_out(m: Measured) -> None:
    worker = m.stopped["workers"][0]
    if worker.get("service_events_in") != m.acked:
        raise common.CheckFailed(f"{m.phase}: worker took in {worker.get('service_events_in')} "
                                 f"events, clients acked {m.acked}")


async def drive(spec: UplinkSpec, seed: int, seconds: float, work: Path,
                host: Host) -> Dict[str, object]:
    """Generate the inputs and play the rounds.  Each measured phase
    runs on a fresh service."""
    rng = random.Random(seed)
    fleet_key = rng.randbytes(16) if spec.authenticated else None
    config = ServiceConfig(fleet_key=fleet_key)
    fleet = traffic.UplinkFleet.build(seed, GATEWAYS, VEHICLES_PER_GATEWAY)
    gws = [Gateway(f"gw-{seed}-{g}",
                   derive_session_key(fleet_key, f"gw-{seed}-{g}") if fleet_key else None)
           for g in range(GATEWAYS)]
    client_ids = [g.client_id for g in gws]
    sealed = fleet_key is not None

    # Warm-up and closed-loop inputs, stamped in the recent past: the
    # closed loop uploads a backlog covering CLOSED_SPAN_S of event time.
    # Every round sends the same closed-loop batches to a fresh service.
    size = spec.closed_batch_events
    n = size * int(spec.closed_eps * seconds * CLOSED_SHARE / size / GATEWAYS / ROUNDS)
    t_gen = time.time()
    t_enc = time.perf_counter()
    warm_events, _ = traffic.uplink_phase(
        rng, fleet, "warmup", [[t_gen - CLOSED_SPAN_S - 1.0] * WARMUP_BATCH_EVENTS] * GATEWAYS, 0)
    closed_events, planted = traffic.uplink_phase(
        rng, fleet, "closed",
        [traffic.linear_stamps(n, t_gen - CLOSED_SPAN_S, t_gen)] * GATEWAYS, CAMPAIGNS_PER_PHASE)
    for g, gw in enumerate(gws):
        gw.warmup = gw.encode(0, warm_events[g])
        gw.closed = [gw.encode(1 + b, ev)
                     for b, ev in enumerate(batches_of(closed_events[g], size))]
    enc_s_per_event = (time.perf_counter() - t_enc) / (n * GATEWAYS)
    del warm_events, closed_events
    common.freeze_inputs()
    warm_due = GATEWAYS * WARMUP_BATCH_EVENTS
    profile = WorkerCore(0, None, config).soc.federation_profile()
    speed = common.HostSpeed()
    os.sched_setaffinity(0, {speed.cpus[0]})

    setup: List[float] = []
    rates: List[float] = []
    p50s: List[float] = []
    recover: List[float] = []
    hub_eps: List[float] = []
    closed: List[Measured] = []
    opened: List[Measured] = []
    samples: Dict[str, list] = {"late": [], "credit_wait": [], "latency": []}
    for r in range(ROUNDS):
        m = Measured(f"closed-{r}", work / f"closed-{r}", planted, client_ids, sealed,
                     due=warm_due + n * GATEWAYS)
        clients, setup_s = await start_service(host, gws, m.root, fleet_key, speed)
        setup.append(setup_s)
        m.sends.extend((g, gw.warmup) for g, gw in enumerate(gws))
        rates.extend(await closed_loop(clients, gws, size, m, speed))
        await stop_service(host, clients, m)
        closed.append(m)

        o = Measured(f"open-{r}", work / f"open-{r}", set(), client_ids, sealed)
        clients, setup_s = await start_service(host, gws, o.root, fleet_key, speed)
        setup.append(setup_s)
        o.sends.extend((g, gw.warmup) for g, gw in enumerate(gws))
        open_due, o.planted, t_open = encode_open(spec, seconds, rng, fleet, gws,
                                                  enc_s_per_event)
        o.due = warm_due + open_due
        wall_now, mono_now = time.time(), time.monotonic()
        latency: List[Tuple[float, float]] = []
        await asyncio.gather(*(
            open_loop(c, gw, g, lambda t: mono_now + (t - wall_now),
                      spec.open_batch_events, o, samples, latency)
            for g, (c, gw) in enumerate(zip(clients, gws))))
        p50s.extend(window_p50s(latency, t_open))
        samples["latency"].extend(lat for _, lat in latency)
        image = work / f"crash-{r}"
        crash_image(o.root, image)
        await stop_service(host, clients, o)
        opened.append(o)

        store = DurableStore(worker_root(o.root, 0))
        live = common.canonical(store.snapshots.load_latest())
        store.close()
        recover.extend(restarts(o, image, live, speed))
        shipped = m if spec.hub_log == "closed" else o
        hubs = max(1, round(HUB_EVENTS_PER_ROUND / shipped.acked))
        hub_eps.extend(hub_piece(shipped, profile, seed, speed) for _ in range(hubs))
    for m in closed + opened:
        check_tie_out(m)
    for m in closed:
        check_closed(m)
    return {"setup": setup, "rates": rates, "p50s": p50s, "samples": samples,
            "closed": closed, "opened": opened, "config": config,
            "recover": recover, "hub_eps": hub_eps, "speed": speed}


def run(spec: UplinkSpec, seed: int, seconds: float, checkout: Path, work: Path,
        trace: bool) -> common.Result:
    host = Host(checkout)
    try:
        out = asyncio.run(drive(spec, seed, seconds, work, host))
    finally:
        host.close()
    measured: List[Measured] = out["closed"] + out["opened"]
    samples = out["samples"]
    acked = sum(m.acked for m in measured)
    due = sum(m.due for m in measured)
    latency = sorted(samples["latency"])
    q, tail = common.tail_percentile(latency)
    common.note(f"{spec.name}: closed-loop events/s per burst: "
                + " ".join(f"{x:.0f}" for x in out["rates"]))
    common.note(f"{spec.name}: open loops at {spec.open_eps:.0f} events/s, window p50s (ms): "
                + " ".join(f"{1e3 * x:.2f}" for x in out["p50s"]))
    common.note(f"{spec.name}: ack tail percentile p{100 * q:.2f} over {len(latency)} batches")
    common.note(f"{spec.name}: host speed readings: "
                + " ".join(f"{x:.2f}" for x in out["speed"].readings))
    common.note(f"{spec.name}: setup_s per service: "
                + " ".join(f"{x:.4f}" for x in out["setup"]))
    common.note(f"{spec.name}: recover_s per restart: "
                + " ".join(f"{x:.4f}" for x in out["recover"]))
    common.note(f"{spec.name}: hub events/s per hub: "
                + " ".join(f"{x:.0f}" for x in out["hub_eps"]))
    result = common.Result(attempted=due, failed=due - acked)
    result.end_to_end = {
        "setup_s": common.median(out["setup"]),
        "acked_eps": common.median(out["rates"]),
        "peak_rss_mb": max(m.stopped["frontend_maxrss_kb"] + m.stopped["worker_maxrss_kb"]
                           for m in measured) / 1024.0,
        "recover_s": common.median(out["recover"]),
        "hub_apply_eps": common.median(out["hub_eps"]),
    }
    if trace:
        import layers
        # The last round's two services are replayed.
        replayed = [out["closed"][-1], out["opened"][-1]]
        events = sum(m.acked for m in replayed)
        cpu_front = sum(m.stopped["frontend_cpu_s"] for m in replayed) * 1e6 / events
        cpu_worker = sum(m.stopped["worker_cpu_s"] for m in replayed) * 1e6 / events
        workers = [m.stopped["workers"][0] for m in replayed]
        handoffs = sum(w["service_handoffs"] for w in workers)
        result.per_layer = layers.uplink_layers(
            replayed, out["config"], work, seed, cpu_us_per_event=cpu_front + cpu_worker,
            observed={
                "service.frontend_cpu_us_per_event": cpu_front,
                "service.worker_cpu_us_per_event": cpu_worker,
                "service.handoff_wait_ms": 1e3 * sum(
                    w["service_handoff_latency_mean_s"] * w["service_handoffs"]
                    for w in workers) / handoffs,
                "service.suppress_transitions": sum(
                    m.stopped["frontend"]["suppress_transitions"] for m in measured),
                "service.submit_refusals": sum(
                    m.stopped["frontend"]["submit_refusals"] for m in measured),
                "tail.ack_p50_ms": common.median(out["p50s"]) * 1e3,
                "tail.ack_p99_ms": tail * 1e3,
                "tail.ack_samples": len(latency),
                "loadgen.late_ms_p99": common.tail_percentile(sorted(samples["late"]))[1] * 1e3,
                "loadgen.credit_wait_ms_p99":
                    common.tail_percentile(sorted(samples["credit_wait"]))[1] * 1e3,
            })
    return result
