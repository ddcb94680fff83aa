"""The ``serve`` workload's daemon: ``repro serve`` defaults, one worker.

Run as its own process by ``serve.py``::

    python3 perfbench/serve_daemon.py --socket PATH --report FILE [--traced]

The daemon is a :class:`~repro.serve.HashServer` built from a
:class:`~repro.serve.ServeConfig` whose every field keeps the ``repro
serve`` default except the socket and ``workers=1``: the ``auto`` engine,
the 2 ms coalescing window, and observability on (metrics armed and an
unbounded timeline for the daemon's whole life).  It serves until
SIGTERM, drains, and then writes a JSON report: outcome counts, the pool
worker's idle-wait histogram (the registry snapshot the worker ships
back when the executor closes), peak RSS of the daemon and its worker
and, with ``--traced``, one record per executor dispatch taken by an
``executor=`` wrapper around the default pooled executor.
"""

from __future__ import annotations

import argparse
import asyncio
import time

from common import peak_rss_mib, write_json
from repro.observability import metrics
from repro.serve import HashServer, PooledExecutor, ServeConfig

#: Message bytes kept per dispatched item to join it to its request.
KEY_BYTES = 16


class TimedExecutor:
    """Delegates to the real executor; logs every ``hash_batch`` call."""

    def __init__(self, inner) -> None:
        self.inner = inner
        #: ``[start, end, keys]`` per call; calls come from the daemon's
        #: executor threads, and ``list.append`` is atomic.
        self.log = []

    def hash_batch(self, algorithm, length, items):
        started = time.monotonic()
        results = self.inner.hash_batch(algorithm, length, items)
        ended = time.monotonic()
        keys = [bytes(message[:KEY_BYTES]).hex() for message, _ in items]
        self.log.append([started, ended, keys])
        return results

    def restart_workers(self, reason: str = "rolling") -> int:
        return self.inner.restart_workers(reason)

    def close(self) -> None:
        self.inner.close()


def _histogram_totals(snapshot: dict, name: str):
    total, count = 0.0, 0
    for entry in snapshot.get(name, {}).get("series", []):
        total += entry["value"]["sum"]
        count += entry["value"]["count"]
    return total, count


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--socket", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    config = ServeConfig(socket_path=args.socket, workers=1)
    executor = None
    if args.traced:
        executor = TimedExecutor(PooledExecutor(
            config.workers, engine=config.engine, arch=config.arch(),
            transport=config.transport))
    server = HashServer(config, executor=executor)
    asyncio.run(server.run())
    wait_s, waits = _histogram_totals(metrics.registry().snapshot(),
                                      "pool_worker_queue_wait_seconds")
    write_json(args.report, {
        "outcomes": server.outcomes,
        "queue_wait_s": wait_s,
        "queue_waits": waits,
        "peak_rss_mib": peak_rss_mib(),
        "dispatches": executor.log if executor is not None else None,
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
