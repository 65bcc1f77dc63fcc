"""Service host: runs ``serve(IngestService(...))`` in its own process.

The load generator (``uplink.py``) starts this script and drives it
with one JSON command per line on stdin; each reply is one JSON line on
stdout.  Commands:

- ``{"cmd": "start", "root": ..., "fleet_key": hex|null, "worker_cpu": n,
  "frontend_cpu": n}`` -- build the service (1 shard worker, process
  mode) and start the TCP server.  The worker process is pinned to one
  vCPU and the frontend to the other.
  Replies ``{"port", "t_construct"}``; ``t_construct`` is
  ``time.monotonic()`` just before construction (the start of
  ``setup_s``).
- ``{"cmd": "stop"}`` -- ``IngestServer.stop()`` (drain, stop workers),
  then the frontend/worker tie-out checks.  Replies with the frontend
  metrics, the ``drain_and_close()`` worker metrics and the CPU time and
  peak RSS of this process and its reaped workers over the service's
  life.
- ``{"cmd": "exit"}``.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.soc import ConservationAudit, IngestService, ServiceConfig, serve  # noqa: E402


def cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


async def main() -> None:
    loop = asyncio.get_running_loop()
    service = server = None
    cpu0 = (0.0, 0.0)
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line:
            break
        msg = json.loads(line)
        if msg["cmd"] == "start":
            key = msg.get("fleet_key")
            config = ServiceConfig(fleet_key=bytes.fromhex(key) if key else None)
            cpu0 = (cpu_s(resource.RUSAGE_SELF), cpu_s(resource.RUSAGE_CHILDREN))
            t_construct = time.monotonic()
            # The worker process inherits this affinity when it is forked.
            os.sched_setaffinity(0, {msg["worker_cpu"]})
            service = IngestService(1, mode="process", root=msg["root"], config=config)
            os.sched_setaffinity(0, {msg["frontend_cpu"]})
            server = await serve(service)
            reply({"port": server.port, "t_construct": t_construct})
        elif msg["cmd"] == "stop":
            workers = await server.stop()
            ConservationAudit().check_service(service)
            frontend = service.metrics()
            in_w = sum(m.get("service_events_in", 0.0) for m in workers)
            dispatched = sum(m.get("dispatched", 0.0) for m in workers)
            if in_w != frontend["events_acked"] + frontend["events_refused"]:
                raise RuntimeError(
                    f"frontend/worker tie-out: worker saw {in_w} events, frontend "
                    f"acked {frontend['events_acked']} + refused {frontend['events_refused']}")
            if dispatched != frontend["events_acked"]:
                raise RuntimeError(
                    f"frontend/worker tie-out: worker dispatched {dispatched}, "
                    f"frontend acked {frontend['events_acked']}")
            reply({
                "frontend": frontend,
                "workers": workers,
                "frontend_cpu_s": cpu_s(resource.RUSAGE_SELF) - cpu0[0],
                "worker_cpu_s": cpu_s(resource.RUSAGE_CHILDREN) - cpu0[1],
                "frontend_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "worker_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            })
            service = server = None
        elif msg["cmd"] == "exit":
            break
    if server is not None:
        await server.stop()


if __name__ == "__main__":
    asyncio.run(main())
