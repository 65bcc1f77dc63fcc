"""E20 -- Ingest front-door hardening: auth overhead, quota fencing,
worker MTTR (§5, §7).

E19 made the network front door *fast*; E20 measures what hardening it
costs and proves what hardening buys, across the three layers the
service now carries:

- **Authentication overhead** -- the same E19-style client fleet run
  twice, plain vs CMAC-authenticated (HELLO/CHALLENGE/AUTH handshake,
  per-batch tag trailers sealed client-side and verified by the owning
  worker).  Reported as sustained acked eps for both modes and the
  relative overhead.  The repo's AES is the from-first-principles
  pure-Python implementation (:mod:`repro.crypto.aes`), so per-batch
  CMAC over multi-KB payloads *dominates* the authenticated cell --
  that is the honest price of in-tree crypto, and exactly why the smoke
  gate floors the authenticated eps against the committed reference run
  rather than asserting a flattering overhead fraction.
- **Quota fencing** -- N honest clients with and without one hostile
  flooder that ignores backpressure.  The per-client byte token bucket
  hard-refuses the flood (REFUSED frames, credits returned) and the
  refusal threshold disconnects the abuser, so honest goodput holds:
  the cell reports the honest-goodput ratio vs the hostile-free
  baseline (target >= 0.95) plus the refusal/disconnect counters that
  prove enforcement actually happened.
- **Worker MTTR** -- the supervised auto-restart path: every worker is
  SIGKILLed once under live load and the cell measures kill ->
  last resubmitted handoff reported (snapshot load + log-suffix replay
  + resubmission, whose already-sealed handoffs are acked, not
  re-admitted).  Driven deterministically (injected
  wall clock, one flush per round) so the run is also differentially
  compared against an uninterrupted twin: raw worker log segments AND
  analytics snapshots must be byte-identical, and zero admitted-batch
  ACKs may be lost -- the restart is invisible except as latency.

As with E19 these are wall-clock cells of a live multiprocess service,
so rows are host-dependent by design; ``benchmarks/e20_smoke.py`` gates
them with self-arming floors and ``benchmarks/results/BENCH_E20.json``
records the reference run.  The deterministic correctness properties
(tamper refusal, exactly-once replay, conservation) are pinned in
``tests/test_soc_hardening.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import shutil
import tempfile
import time
from typing import Dict, List, Optional

from repro.analysis.sweep import SweepResult
from repro.core.safety import Asil
from repro.experiments.e19_service import BENCH_CONFIG
from repro.soc import EventSource, ServiceConfig, make_event
from repro.soc.service import (
    IngestService,
    VehicleClient,
    derive_session_key,
    encode_batch,
    recover_worker,
    seal_payload,
    serve,
    worker_root,
)

FLEET_KEY = bytes(range(16))

N_CLIENTS = 40
ROUNDS = 5
PER_BATCH = 20
N_SIGNATURES = 32
MTTR_WORKERS = 2
MTTR_ROUNDS = 14
MTTR_CLIENTS = 3


def _client_id(seed: int, i: int) -> str:
    return f"veh-{seed}-{i:04d}"


def _build_payloads(n_clients: int, rounds: int, per_batch: int, seed: int,
                    authenticated: bool) -> List[List[bytes]]:
    """Pre-encoded (and, in authenticated mode, pre-sealed) BATCH
    payloads per client -- serialization and CMAC signing that belongs
    to the *client* happens before the clock starts; what the cell
    measures is the service side (handshake + per-batch verify)."""
    base_t = time.time() - 60.0
    payloads: List[List[bytes]] = []
    for i in range(n_clients):
        cid = _client_id(seed, i)
        key = derive_session_key(FLEET_KEY, cid) if authenticated else None
        client_rounds = []
        for rnd in range(rounds):
            events = [
                make_event(
                    cid, EventSource.IDS,
                    f"e20.sig:{(i + rnd * 7 + j) % N_SIGNATURES:02d}",
                    base_t + rnd * 0.25 + j * 1e-3, rnd * per_batch + j,
                    severity=Asil.B)
                for j in range(per_batch)
            ]
            payload = encode_batch(rnd, events)
            if key is not None:
                payload = seal_payload(key, cid, payload)
            client_rounds.append(payload)
        payloads.append(client_rounds)
    return payloads


async def _drive_clients(port: int, payloads: List[List[bytes]],
                         per_batch: int, seed: int, authenticated: bool
                         ) -> tuple:
    clients = []
    for i in range(len(payloads)):
        cid = _client_id(seed, i)
        key = derive_session_key(FLEET_KEY, cid) if authenticated else None
        clients.append(VehicleClient(cid, port=port, session_key=key))
    await asyncio.gather(*(c.connect() for c in clients))

    async def one(client: VehicleClient, rounds: List[bytes]) -> None:
        for payload in rounds:
            await client.send_payload(payload, n_events=per_batch)
        await client.drain()

    t0 = time.perf_counter()
    await asyncio.gather(*(one(c, p) for c, p in zip(clients, payloads)))
    wall_s = time.perf_counter() - t0
    await asyncio.gather(*(c.close() for c in clients))
    return wall_s, clients


# ----------------------------------------------------------------------
# Cell 1: authentication overhead
# ----------------------------------------------------------------------
def auth_cell(
    authenticated: bool,
    seed: int = 0,
    n_clients: int = N_CLIENTS,
    rounds: int = ROUNDS,
    per_batch: int = PER_BATCH,
    num_workers: int = 2,
    config: ServiceConfig = BENCH_CONFIG,
) -> Dict[str, float]:
    """One throughput cell, plain or CMAC-authenticated end to end."""
    if authenticated:
        config = dataclasses.replace(config, fleet_key=FLEET_KEY)
    tmp = tempfile.mkdtemp(prefix="e20-auth-")
    try:
        async def main():
            svc = IngestService(num_workers, mode="process", root=tmp,
                                config=config)
            server = await serve(svc)
            try:
                wall_s, clients = await _drive_clients(
                    server.port,
                    _build_payloads(n_clients, rounds, per_batch, seed,
                                    authenticated),
                    per_batch, seed, authenticated)
            finally:
                worker_metrics = await server.stop()
            return svc, wall_s, clients, worker_metrics

        svc, wall_s, clients, worker_metrics = asyncio.run(main())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    sent = sum(c.events_sent for c in clients)
    acked = sum(c.events_accepted for c in clients)
    if acked != sent:
        raise AssertionError(
            f"E20 auth cell lost telemetry: {acked} acked of {sent} sent")
    rejected = sum(m.get("service_cmac_rejected", 0.0)
                   for m in worker_metrics)
    if rejected:
        raise AssertionError(
            f"E20 auth cell: {rejected:.0f} honest batches CMAC-rejected")
    rtts = sorted(r for c in clients for r in c.rtts_s)
    return {
        "authenticated": float(authenticated),
        "clients": float(n_clients),
        "events": float(sent),
        "wall_s": wall_s,
        "eps": sent / wall_s if wall_s > 0 else 0.0,
        "p99_ms": rtts[max(0, int(len(rtts) * 0.99) - 1)] * 1e3,
        "auth_failures": svc.metrics()["auth_failures"],
    }


def overhead_cells(seed: int = 0, **kw) -> Dict[str, object]:
    """Plain vs authenticated throughput; overhead is relative eps loss."""
    plain = auth_cell(False, seed=seed, **kw)
    authed = auth_cell(True, seed=seed, **kw)
    overhead = (1.0 - authed["eps"] / plain["eps"]) if plain["eps"] else 0.0
    return {"plain": plain, "authenticated": authed,
            "overhead_frac": overhead}


# ----------------------------------------------------------------------
# Cell 2: quota fencing (1 hostile flooder vs N honest clients)
# ----------------------------------------------------------------------
def quota_cell(
    seed: int = 0,
    n_honest: int = 64,
    rounds: int = 32,
    per_batch: int = PER_BATCH,
    hostile_factor: int = 4,
    repeats: int = 5,
    config: ServiceConfig = BENCH_CONFIG,
) -> Dict[str, float]:
    """Honest fleet with and without one hostile flooder under the
    per-client byte quota.

    The bucket is sized so each honest client's whole run fits in its
    burst (honest traffic is never throttled -- asserted), while the
    hostile client ships ``hostile_factor``x that volume as fast as
    credits return: everything past its burst is hard-refused and the
    refusal threshold disconnects it.  Reports honest goodput in both
    runs and their ratio (the >= 0.95 acceptance), plus the enforcement
    counters.  Each arm runs ``repeats`` times, interleaved
    base/attack, and the goodput ratio is the *median of the paired
    per-iteration ratios*: pairing adjacent runs cancels the host's
    monotone run-to-run drift (which would bias whichever arm ran
    later), and the median discards the occasional scheduler spike that
    a mean or a cross-arm min comparison would sample.  The headline
    eps figures are each arm's best (min-wall) run."""
    honest_payloads = _build_payloads(n_honest, rounds, per_batch, seed,
                                      authenticated=False)
    per_client_bytes = max(
        sum(len(p) for p in rounds_) for rounds_ in honest_payloads)
    # Tight burst: each honest client's blast just fits, so the flooder's
    # free ride (the bucket cannot tell a blast from a flood until the
    # burst is spent) is capped at ~1/n_honest of the admitted work.
    burst = float(per_client_bytes) * 1.05
    hostile_id = f"veh-{seed}-hostile"
    base_t = time.time() - 60.0
    hostile_payloads = []
    for rnd in range(rounds * hostile_factor):
        events = [make_event(hostile_id, EventSource.IDS,
                             f"e20.sig:{j % N_SIGNATURES:02d}",
                             base_t + rnd * 0.01 + j * 1e-4,
                             rnd * per_batch + j, severity=Asil.B)
                  for j in range(per_batch)]
        hostile_payloads.append(encode_batch(rnd, events))

    def run_once(with_hostile: bool):
        tmp = tempfile.mkdtemp(prefix="e20-quota-")
        try:
            async def main():
                svc = IngestService(
                    2, mode="process", root=tmp, config=config,
                    quota_bytes_per_s=burst / 4.0,
                    quota_burst_bytes=burst,
                    quota_disconnect_after=10,
                    initial_credits=16)
                server = await serve(svc)
                honest = [VehicleClient(_client_id(seed, i), port=server.port)
                          for i in range(n_honest)]
                await asyncio.gather(*(c.connect() for c in honest))
                hostile = None
                if with_hostile:
                    hostile = VehicleClient(hostile_id, port=server.port)
                    await hostile.connect()

                async def drive_honest(client, rounds_):
                    for payload in rounds_:
                        await client.send_payload(payload,
                                                  n_events=per_batch)
                    await client.drain()

                async def drive_hostile(client):
                    # Ignores SUPPRESS entirely; floods until the
                    # service cuts the connection.
                    try:
                        for payload in hostile_payloads:
                            await client.send_payload(payload,
                                                      n_events=per_batch)
                    except ConnectionError:
                        pass

                t0 = time.perf_counter()
                tasks = [drive_honest(c, p)
                         for c, p in zip(honest, honest_payloads)]
                if hostile is not None:
                    tasks.append(drive_hostile(hostile))
                await asyncio.gather(*tasks)
                wall_s = time.perf_counter() - t0
                await asyncio.gather(*(c.close() for c in honest))
                if hostile is not None:
                    await hostile.close()
                await server.stop()
                return svc, wall_s, honest, hostile

            return asyncio.run(main())
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    # Interleave the arms: host drift (page cache, heap growth, noisy
    # neighbors) hits both equally instead of biasing whichever arm
    # runs second.
    base_runs, att_runs = [], []
    for _ in range(repeats):
        base_runs.append(run_once(False))
        att_runs.append(run_once(True))

    for _, _, honest_att, hostile in att_runs:
        honest_sent = sum(c.events_sent for c in honest_att)
        honest_acked = sum(c.events_accepted for c in honest_att)
        if honest_acked != honest_sent:
            raise AssertionError(
                f"E20 quota cell: honest fleet lost telemetry under attack "
                f"({honest_acked} acked of {honest_sent} sent)")
        if sum(c.batches_refused for c in honest_att):
            raise AssertionError(
                "E20 quota cell: an honest client was quota-refused")
    svc_att, wall_att, honest_att, hostile = min(
        att_runs, key=lambda r: r[1])
    _, wall_base, honest_base, _ = min(base_runs, key=lambda r: r[1])
    honest_sent = sum(c.events_sent for c in honest_att)
    honest_acked = sum(c.events_accepted for c in honest_att)
    if not (hostile.batches_refused or svc_att.quota_refused):
        raise AssertionError("E20 quota cell: the flood was never refused")
    # Honest event totals are identical in both arms (asserted above),
    # so the per-pair goodput ratio reduces to the wall-time ratio.
    pair_ratios = sorted(b[1] / a[1] for a, b in zip(att_runs, base_runs))
    goodput_ratio = pair_ratios[len(pair_ratios) // 2]
    goodput_base = (sum(c.events_accepted for c in honest_base)
                    / wall_base if wall_base > 0 else 0.0)
    goodput_att = honest_acked / wall_att if wall_att > 0 else 0.0
    return {
        "honest_clients": float(n_honest),
        "honest_events": float(honest_sent),
        "goodput_baseline_eps": goodput_base,
        "goodput_under_attack_eps": goodput_att,
        "goodput_ratio": goodput_ratio,
        "hostile_batches_sent": float(hostile.batches_sent),
        "hostile_batches_refused": float(hostile.batches_refused),
        "hostile_events_admitted": float(hostile.events_accepted),
        "quota_refused": svc_att.metrics()["quota_refused"],
        "quota_refused_bytes": svc_att.metrics()["quota_refused_bytes"],
        "quota_disconnects": svc_att.metrics()["quota_disconnects"],
    }


# ----------------------------------------------------------------------
# Cell 3: worker MTTR under SIGKILL, differential vs twin
# ----------------------------------------------------------------------
def _drive_mttr(root, kill_every_worker: bool,
                num_workers: int = MTTR_WORKERS,
                rounds: int = MTTR_ROUNDS,
                n_clients: int = MTTR_CLIENTS,
                per_batch: int = 6,
                config: Optional[ServiceConfig] = None):
    """Deterministically drive a process-mode service (injected wall
    clock, one flush per round -- identical handoff grouping across
    runs), SIGKILLing every worker once mid-run when asked.  Returns
    (acked_batches, mttr_s_per_worker, frontend_metrics)."""
    config = config or ServiceConfig(max_lateness_s=7200.0,
                                     snapshot_every_pumps=4,
                                     fleet_key=FLEET_KEY)
    clk = [1000.0]
    svc = IngestService(num_workers, mode="process", root=root,
                        config=config, clock=lambda: clk[0])
    conns = [svc.open_conn(f"veh-m{i}") for i in range(n_clients)]
    keys = {c.client_id: derive_session_key(FLEET_KEY, c.client_id)
            for c in conns}
    kill_round = rounds // 2
    acked = 0
    mttrs: List[float] = []
    for rnd in range(rounds):
        clk[0] += 1.0
        for conn in conns:
            events = [make_event(conn.client_id, EventSource.IDS,
                                 f"e20.sig:{j % 8:02d}",
                                 900.0 + rnd + j * 1e-3,
                                 rnd * per_batch + j, severity=Asil.B)
                      for j in range(per_batch)]
            payload = seal_payload(keys[conn.client_id], conn.client_id,
                                   encode_batch(rnd, events))
            if not svc.route(conn, payload):
                raise AssertionError("E20 MTTR cell: unexpected refusal")
        svc.flush()
        if kill_every_worker and rnd == kill_round:
            t0 = time.perf_counter()
            for shard in range(num_workers):
                svc.sigkill_worker(shard)
            if svc.check_workers() != num_workers:
                raise AssertionError("supervisor missed a dead worker")
            while svc.inflight_batches():
                acked += len(svc.poll_completions(timeout=0.05))
            mttrs.append(time.perf_counter() - t0)
        acked += len(svc.poll_completions(timeout=0.01))
    deadline = time.monotonic() + 120.0
    while (svc.buffered() or svc.inflight_batches()) \
            and time.monotonic() < deadline:
        svc.flush()
        acked += len(svc.poll_completions(timeout=0.01))
    svc.audit_conservation()
    metrics = svc.metrics()
    svc.drain_and_close()
    return acked, mttrs, metrics


def mttr_cell(seed: int = 0) -> Dict[str, float]:
    """Kill every worker once under live load; report MTTR and prove the
    restart was invisible (byte-identical differential, zero lost ACKs).
    """
    tmp = tempfile.mkdtemp(prefix="e20-mttr-")
    try:
        killed_root = os.path.join(tmp, "killed")
        twin_root = os.path.join(tmp, "twin")
        acked, mttrs, metrics = _drive_mttr(killed_root, True)
        twin_acked, _, twin_metrics = _drive_mttr(twin_root, False)
        expected = MTTR_ROUNDS * MTTR_CLIENTS
        if acked != expected or twin_acked != expected:
            raise AssertionError(
                f"E20 MTTR cell lost ACKs: {acked} vs twin {twin_acked} "
                f"(expected {expected})")
        if metrics["events_acked"] != twin_metrics["events_acked"]:
            raise AssertionError("E20 MTTR cell: admitted-event divergence")
        identical = 1.0
        for shard in range(MTTR_WORKERS):
            a_dir = worker_root(killed_root, shard)
            b_dir = worker_root(twin_root, shard)
            segs_a = sorted(a_dir.rglob("seg-*.log"))
            segs_b = sorted(b_dir.rglob("seg-*.log"))
            if [p.relative_to(a_dir) for p in segs_a] != \
                    [p.relative_to(b_dir) for p in segs_b]:
                identical = 0.0
            elif any(a.read_bytes() != b.read_bytes()
                     for a, b in zip(segs_a, segs_b)):
                identical = 0.0
            if recover_worker(killed_root, shard).analytics_snapshot() != \
                    recover_worker(twin_root, shard).analytics_snapshot():
                identical = 0.0
        if not identical:
            raise AssertionError(
                "E20 MTTR cell: restarted run diverged from its twin")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "workers_killed": float(MTTR_WORKERS),
        "acked_batches": float(acked),
        "acks_lost": float(expected - acked),
        "mttr_mean_s": sum(mttrs) / len(mttrs),
        "mttr_max_s": max(mttrs),
        "worker_restarts": metrics["worker_restarts"],
        "handoffs_resubmitted": metrics["handoffs_resubmitted"],
        "duplicate_reports": metrics["duplicate_reports"],
        "byte_identical": identical,
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def all_cells(seed: int = 0, n_clients: int = N_CLIENTS,
              rounds: int = ROUNDS) -> Dict[str, object]:
    return {
        "overhead": overhead_cells(seed=seed, n_clients=n_clients,
                                   rounds=rounds),
        "quota": quota_cell(seed=seed),
        "mttr": mttr_cell(seed=seed),
    }


def run(seed: int = 0, n_clients: int = N_CLIENTS,
        rounds: int = ROUNDS) -> SweepResult:
    """The three hardening cells as one SweepResult table."""
    cells = all_cells(seed=seed, n_clients=n_clients, rounds=rounds)
    over = cells["overhead"]
    quota = cells["quota"]
    mttr = cells["mttr"]
    result = SweepResult(
        "E20: ingest hardening -- auth overhead, quota fencing, "
        "worker MTTR",
        ["cell", "eps_plain", "eps_authed", "overhead_frac",
         "goodput_ratio", "mttr_max_s", "byte_identical"],
    )
    result.add(cell="overhead",
               eps_plain=over["plain"]["eps"],
               eps_authed=over["authenticated"]["eps"],
               overhead_frac=over["overhead_frac"],
               goodput_ratio=float("nan"),
               mttr_max_s=float("nan"),
               byte_identical=float("nan"))
    result.add(cell="quota",
               eps_plain=quota["goodput_baseline_eps"],
               eps_authed=quota["goodput_under_attack_eps"],
               overhead_frac=float("nan"),
               goodput_ratio=quota["goodput_ratio"],
               mttr_max_s=float("nan"),
               byte_identical=float("nan"))
    result.add(cell="mttr",
               eps_plain=float("nan"),
               eps_authed=float("nan"),
               overhead_frac=float("nan"),
               goodput_ratio=float("nan"),
               mttr_max_s=mttr["mttr_max_s"],
               byte_identical=mttr["byte_identical"])
    return result


def write_bench_json(path, cells: Dict[str, object]) -> Dict[str, object]:
    """Write the machine-readable E20 perf record (``BENCH_E20.json``).

    ``cpu_count`` is recorded because the throughput cells timeslice on
    small hosts; the smoke gate self-arms its floors from the committed
    reference run either way."""
    payload = {
        "schema": "bench-e20/v1",
        "cpu_count": os.cpu_count() or 1,
        "cells": cells,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
