"""E19 -- Network ingest service: throughput scaling past the GIL (§7).

E17/E18 made the *analytics* fast (batched correlate at about a million
events per second in-engine) but every event still entered the VSOC
through single-process Python calls.  E19 measures the front door the
paper's §7 centralized-policy direction actually requires: the
:mod:`repro.soc.service` asyncio TCP server, fed by hundreds-to-
thousands of concurrent :class:`~repro.soc.service.VehicleClient`
connections, fanned out to 1/2/4 shard worker *processes*.

Per cell (worker count), the driver reports:

- ``eps`` -- sustained acknowledged ingest throughput: events whose ACK
  (sent only after the owning worker *dispatched* them through its
  pipeline + correlator + durable log) returned, divided by wall time;
- ``p50_ms`` / ``p99_ms`` -- client-observed ACK round-trip latency,
  i.e. honest end-to-end ingest latency including framing, routing,
  queue handoff, admission, correlation, and the log write;
- ``speedup`` -- eps relative to the 1-worker cell of the same run.

Methodology notes (they are what make the numbers mean something):

- **Clients pre-serialize.**  Every BATCH payload is encoded before the
  clock starts, so the measurement is of the *service* (frontend
  routing + worker decode/correlate/log), not of client-side
  ``json.dumps``.
- **The clock covers sends through final ACK** -- throughput is
  "sustained acked", not "bytes fired into a socket".
- **Conservation is asserted, not assumed**: every cell requires
  acked == sent events and frontend/worker counter tie-out, so a cell
  that quietly dropped telemetry fails the experiment rather than
  posting a flattering number.

Scaling expectation: the frontend never JSON-decodes an event, so with
``N`` worker processes on >= ``N+1`` free cores the decode+correlate+log
cost parallelizes; the acceptance target is >=3x sustained eps at 4
workers vs 1.  On fewer cores the extra processes just timeslice one
CPU, so ``benchmarks/e19_smoke.py`` arms its scaling gate only where
the host can physically express the speedup (``cpu_count`` is recorded
in ``BENCH_E19.json`` either way).

Unlike E1..E17 this driver measures wall-clock behavior of a live
multiprocess service, so rows are host-dependent by design (like the
micro-benchmarks E17/E18 keep out of their SweepResults); the
deterministic correctness properties of the same stack are pinned in
``tests/test_soc_service.py``.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.sweep import SweepResult
from repro.core.safety import Asil
from repro.soc import EventSource, ServiceConfig, make_event
from repro.soc.service import IngestService, VehicleClient, encode_batch, serve

DEFAULT_WORKERS: Tuple[int, ...] = (1, 2, 4)
N_CLIENTS = 100
ROUNDS = 6
PER_BATCH = 20
#: Benign signature catalog size: shared signatures make the correlator
#: do real campaign work (k co-occurrence fires), not just bookkeeping.
N_SIGNATURES = 32

#: Bench-cell analytic config: a network front door's deep queue, and a
#: lateness bound wide enough that interleaving across hundreds of
#: independent client timelines never trips the hygiene drop (the cells
#: assert acked == sent; hygiene behavior has its own tests).
BENCH_CONFIG = ServiceConfig(max_lateness_s=120.0, snapshot_every_pumps=0,
                             queue_capacity=1 << 17, batch_size=512)


def _build_payloads(n_clients: int, rounds: int, per_batch: int,
                    seed: int) -> List[List[bytes]]:
    """Pre-encoded BATCH payloads per client (serialize once, before the
    clock starts).  Event times sit on one shared recent timeline so
    cross-client interleaving stays inside the lateness bound."""
    base_t = time.time() - 60.0
    payloads: List[List[bytes]] = []
    for i in range(n_clients):
        client_rounds = []
        for rnd in range(rounds):
            events = [
                make_event(
                    f"veh-{seed}-{i:04d}", EventSource.IDS,
                    f"e19.sig:{(i + rnd * 7 + j) % N_SIGNATURES:02d}",
                    base_t + rnd * 0.25 + j * 1e-3, rnd * per_batch + j,
                    severity=Asil.B)
                for j in range(per_batch)
            ]
            client_rounds.append(encode_batch(rnd, events))
        payloads.append(client_rounds)
    return payloads


async def _drive_clients(port: int, payloads: List[List[bytes]],
                         per_batch: int
                         ) -> Tuple[float, List[VehicleClient]]:
    """Connect every client, fire all pre-built batches under credit
    flow control, wait for every ACK; returns (wall_s, clients)."""
    clients = [VehicleClient(f"veh-c{i:04d}", port=port)
               for i in range(len(payloads))]
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


def service_cell(
    num_workers: int,
    seed: int = 0,
    n_clients: int = N_CLIENTS,
    rounds: int = ROUNDS,
    per_batch: int = PER_BATCH,
    mode: str = "process",
    root: Optional[str] = None,
    config: ServiceConfig = BENCH_CONFIG,
) -> Dict[str, float]:
    """One measured cell: ``n_clients`` concurrent connections through
    the asyncio frontend into ``num_workers`` shard workers."""
    tmp = None
    if root is None:
        tmp = tempfile.mkdtemp(prefix="e19-")
        root = tmp
    try:
        async def main():
            svc = IngestService(num_workers, mode=mode, root=root,
                                config=config)
            server = await serve(svc)
            try:
                wall_s, clients = await _drive_clients(
                    server.port,
                    _build_payloads(n_clients, rounds, per_batch, seed),
                    per_batch)
            finally:
                worker_metrics = await server.stop()
            return svc, wall_s, clients, worker_metrics

        svc, wall_s, clients, worker_metrics = asyncio.run(main())
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)

    sent = sum(c.events_sent for c in clients)
    acked = sum(c.events_accepted for c in clients)
    rtts = sorted(r for c in clients for r in c.rtts_s)
    if acked != sent:
        raise AssertionError(
            f"E19 cell lost telemetry: {acked} acked of {sent} sent")
    worker_in = sum(m.get("service_events_in", 0.0) for m in worker_metrics)
    worker_dispatched = sum(m.get("dispatched", 0.0) for m in worker_metrics)
    if worker_in != sent or worker_dispatched != acked:
        raise AssertionError(
            "E19 frontend/worker accounting mismatch: "
            f"sent={sent} worker_in={worker_in:.0f} "
            f"acked={acked} dispatched={worker_dispatched:.0f}")
    return {
        "workers": float(num_workers),
        "clients": float(n_clients),
        "batches": float(sum(c.batches_sent for c in clients)),
        "events": float(sent),
        "wall_s": wall_s,
        "eps": sent / wall_s if wall_s > 0 else 0.0,
        "p50_ms": rtts[len(rtts) // 2] * 1e3,
        "p99_ms": rtts[max(0, int(len(rtts) * 0.99) - 1)] * 1e3,
        "suppress_transitions": svc.metrics()["suppress_transitions"],
        "handoffs": svc.metrics()["handoffs_submitted"],
    }


def scaling_cells(
    seed: int = 0,
    workers: Sequence[int] = DEFAULT_WORKERS,
    n_clients: int = N_CLIENTS,
    rounds: int = ROUNDS,
    per_batch: int = PER_BATCH,
    mode: str = "process",
) -> List[Dict[str, float]]:
    """The worker-count sweep; each cell gains ``speedup`` vs the first."""
    cells = [service_cell(w, seed=seed, n_clients=n_clients, rounds=rounds,
                          per_batch=per_batch, mode=mode) for w in workers]
    base = cells[0]["eps"]
    for cell in cells:
        cell["speedup"] = cell["eps"] / base if base > 0 else 0.0
    return cells


def run(
    seed: int = 0,
    workers: Sequence[int] = DEFAULT_WORKERS,
    n_clients: int = N_CLIENTS,
    rounds: int = ROUNDS,
    per_batch: int = PER_BATCH,
    mode: str = "process",
) -> SweepResult:
    """Worker-count sweep as a SweepResult table (the E19 row format)."""
    result = SweepResult(
        "E19: network ingest service -- sustained eps + ACK p99 vs "
        "worker processes",
        ["workers", "clients", "events", "eps", "p50_ms", "p99_ms",
         "speedup"],
    )
    for cell in scaling_cells(seed=seed, workers=workers,
                              n_clients=n_clients, rounds=rounds,
                              per_batch=per_batch, mode=mode):
        result.add(workers=int(cell["workers"]),
                   clients=int(cell["clients"]),
                   events=int(cell["events"]),
                   eps=cell["eps"],
                   p50_ms=cell["p50_ms"],
                   p99_ms=cell["p99_ms"],
                   speedup=cell["speedup"])
    return result


def write_bench_json(path, cells: List[Dict[str, float]],
                     inline_cell: Optional[Dict[str, float]] = None
                     ) -> Dict[str, object]:
    """Write the machine-readable E19 perf record (``BENCH_E19.json``).

    ``cpu_count`` is recorded because the >=3x scaling acceptance is
    physically expressible only with enough cores; the smoke gate reads
    it back to decide whether the scaling gate is armed on this host."""
    payload = {
        "schema": "bench-e19/v1",
        "cpu_count": os.cpu_count() or 1,
        "n_clients": int(cells[0]["clients"]) if cells else 0,
        "cells": cells,
    }
    if inline_cell is not None:
        payload["inline_cell"] = inline_cell
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
