"""The ``serve`` workload: a ``repro serve`` daemon under one client.

Why: the hash costs little per request here, so the front end (accept,
parse, admission, queue, coalescing window, respond) and the executor's
handoff to its worker process dominate.  This is the path a refactor of
the pool's dispatch loop or a per-stage latency budget will move.

Shape: the daemon runs in its own process (``serve_daemon.py``) with
one pool worker, and this process is the only client, with at most
``NPROC`` connections open.  Requests are SHA3-256 over 64-byte
messages, with every eighth one a 2 KiB multi-block message; the seed
picks the message bytes and where the long ones fall.  Two phases:

* open loop: requests are due at a fixed rate (about half the daemon's
  capacity on a 2-core host).  A generator task wakes at each due time
  and hands the request to one of the connections; latency runs from the
  due time, so a stall makes every later request wait and shows.  The
  generator's own lateness is reported, and a run whose p99 lateness
  exceeds ``LATENESS_BOUND_MS`` is invalid.
* closed loop: ``NPROC`` connections each send the next request as soon
  as the previous one is answered; this gives ``ops_per_s``.

Both phases run in one-second windows; between windows the host probe
(``common.HostProbe``) runs while the daemon is idle, and each window's
times are divided by the slowdown measured around it.

Every response is checked against hashlib.  Requests go through
``repro.serve.loadgen.request``, one connection per request.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from common import (
    NPROC,
    ROOT,
    child_env,
    interval_union,
    HostProbe,
    median,
    quantile,
    read_json,
    rng_for,
    sha3_256_permutations,
    summarize,
)

#: Open-loop arrival rate (requests/s).
OPEN_RATE = 120.0
#: Share of the measured seconds spent in the open loop.
OPEN_SHARE = 0.6
#: The open loop runs in windows of this many seconds, the closed loop
#: in bins; the host is probed between them.
OPEN_WINDOW_S = 1.0
CLOSED_BIN_S = 1.0
SMALL, LARGE = 64, 2048
#: Every LONG_EVERY-th request carries a LARGE message.
LONG_EVERY = 8
#: A run whose generator was later than this at p99 is invalid.
LATENESS_BOUND_MS = 10.0
REQUEST_TIMEOUT = 30.0
KEY_BYTES = 16
PATH = "/hash/sha3_256"


def _sizes(count: int, rng) -> List[int]:
    sizes = [LARGE if i % LONG_EVERY == LONG_EVERY - 1 else SMALL
             for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def mix_cycles_per_byte(cycles_per_permutation: int) -> float:
    """Simulated cycles per input byte of this workload's message mix."""
    sizes = [LARGE if i % LONG_EVERY == LONG_EVERY - 1 else SMALL
             for i in range(LONG_EVERY)]
    perms = sum(sha3_256_permutations(size) for size in sizes)
    return cycles_per_permutation * perms / sum(sizes)


class Record:
    """One request as the client saw it (monotonic seconds)."""

    __slots__ = ("key", "due", "lateness", "sent", "connect", "done",
                 "outcome", "slowdown")

    def __init__(self, key: str, due: float, lateness: float) -> None:
        self.key = key
        self.due = due
        self.lateness = lateness
        self.sent = self.done = 0.0
        self.connect: Optional[float] = None
        self.outcome = "pending"
        self.slowdown = 1.0

    @property
    def latency(self) -> float:
        return self.done - self.due


class Client:
    """The benchmark's own client over ``loadgen.request``."""

    def __init__(self, socket_path: str, traced: bool) -> None:
        from repro.serve import loadgen

        self._request = loadgen.request
        self.socket_path = socket_path
        self.traced = traced
        self._connects: Dict[object, float] = {}

    async def _timed_open(self, *args, **kwargs):
        started = time.monotonic()
        try:
            return await self._open(*args, **kwargs)
        finally:
            self._connects[asyncio.current_task()] = \
                time.monotonic() - started

    def __enter__(self) -> "Client":
        # Connect time is taken by wrapping asyncio's public connect call
        # from outside; only this (client) process is affected.
        if self.traced:
            self._open = asyncio.open_unix_connection
            asyncio.open_unix_connection = self._timed_open
        return self

    def __exit__(self, *exc) -> None:
        if self.traced:
            asyncio.open_unix_connection = self._open

    async def send(self, record: Record, message: bytes) -> None:
        record.sent = time.monotonic()
        try:
            status, body = await self._request(
                PATH, message, socket_path=self.socket_path,
                timeout=REQUEST_TIMEOUT)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            record.outcome = "connection_error"
        else:
            if status != 200:
                record.outcome = f"http_{status}"
            elif body.decode("latin-1") != \
                    hashlib.sha3_256(message).hexdigest():
                record.outcome = "mismatch"
            else:
                record.outcome = "ok"
        record.done = time.monotonic()
        record.connect = self._connects.pop(asyncio.current_task(), None)

    async def open_loop(self, messages: List[bytes],
                        rate: float) -> List[Record]:
        queue: asyncio.Queue = asyncio.Queue()
        records: List[Record] = []
        start = time.monotonic() + 0.02

        async def generate() -> None:
            for index, message in enumerate(messages):
                due = start + index / rate
                delay = due - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                record = Record(message[:KEY_BYTES].hex(), due,
                                time.monotonic() - due)
                records.append(record)
                queue.put_nowait((record, message))
            for _ in range(NPROC):
                queue.put_nowait(None)

        async def connection() -> None:
            while True:
                item = await queue.get()
                if item is None:
                    return
                await self.send(*item)

        await asyncio.gather(generate(),
                             *(connection() for _ in range(NPROC)))
        return records

    async def closed_loop(self, rng, seconds: float):
        """``NPROC`` back-to-back connections for ``seconds``."""
        records: List[Record] = []
        counter = itertools.count()
        end = time.monotonic() + seconds

        async def connection() -> None:
            while time.monotonic() < end:
                index = next(counter)
                size = LARGE if index % LONG_EVERY == LONG_EVERY - 1 \
                    else SMALL
                message = rng.randbytes(size)
                record = Record(message[:KEY_BYTES].hex(),
                                time.monotonic(), 0.0)
                records.append(record)
                await self.send(record, message)

        started = time.monotonic()
        await asyncio.gather(*(connection() for _ in range(NPROC)))
        return records, started, time.monotonic()


class Daemon:
    """One daemon process with a private, empty codegen cache."""

    def __init__(self, workdir: str, tag: str, traced: bool) -> None:
        self.socket = os.path.relpath(os.path.join(workdir, f"{tag}.sock"),
                                      ROOT)
        self.report = os.path.join(workdir, f"{tag}.json")
        cache = os.path.join(workdir, f"cache-{tag}")
        command = [sys.executable,
                   os.path.join(ROOT, "perfbench", "serve_daemon.py"),
                   "--socket", self.socket, "--report", self.report]
        if traced:
            command.append("--traced")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(command, cwd=ROOT, env=child_env(cache),
                                     stdout=sys.stderr.fileno(),
                                     start_new_session=True)

    def kill(self) -> None:
        """SIGKILL the daemon and its pool worker, and reap the daemon."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    async def first_verified(self, message: bytes,
                             timeout: float = 60.0) -> float:
        """Monotonic time of the first verified response."""
        from repro.serve import loadgen

        expected = hashlib.sha3_256(message).hexdigest()
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            if self.proc.poll() is not None:
                raise RuntimeError("serve daemon exited during start-up")
            try:
                status, body = await loadgen.request(
                    PATH, message, socket_path=self.socket,
                    timeout=REQUEST_TIMEOUT)
            except (ConnectionError, OSError):
                await asyncio.sleep(0.005)
                continue
            if status != 200 or body.decode("latin-1") != expected:
                raise RuntimeError(f"first response wrong: {status}")
            return time.monotonic()
        raise RuntimeError("serve daemon did not answer in time")

    def stop(self) -> dict:
        """SIGTERM (graceful drain), wait, return the daemon's report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("serve daemon did not drain in time")
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"serve daemon exited with {self.proc.returncode}")
        return read_json(self.report)


async def _boot(workdir: str, tag: str, traced: bool, message: bytes,
                probe: HostProbe):
    """Start a daemon; returns it and its host-normalized set-up time."""
    before = probe.slowdown()
    daemon = Daemon(workdir, tag, traced)
    try:
        first = await daemon.first_verified(message)
    except BaseException:
        daemon.kill()
        raise
    slowdown = (before + probe.slowdown()) / 2.0
    return daemon, (first - daemon.spawned) / slowdown


async def _phases(daemon: Daemon, seed: int, seconds: float, traced: bool,
                  tag: str, probe: HostProbe):
    """Open-loop windows, then closed-loop bins, probing between them.

    Returns the open-loop records (each carrying its window's slowdown)
    and the closed-loop bins as ``(records, start, end, slowdown)``.
    """
    open_count = max(1, int(OPEN_RATE * seconds * OPEN_SHARE))
    rng = rng_for(seed, "serve", f"open-{tag}")
    messages = [rng.randbytes(size) for size in _sizes(open_count, rng)]
    window = max(1, int(OPEN_RATE * OPEN_WINDOW_S))
    closed_rng = rng_for(seed, "serve", f"closed-{tag}")
    bins = max(1, int(seconds * (1.0 - OPEN_SHARE) / CLOSED_BIN_S))
    open_records: List[Record] = []
    closed = []
    with Client(daemon.socket, traced) as client:
        before = probe.slowdown()
        for first in range(0, len(messages), window):
            records = await client.open_loop(messages[first:first + window],
                                             OPEN_RATE)
            after = probe.slowdown()
            for record in records:
                record.slowdown = (before + after) / 2.0
            open_records += records
            before = after
        for _ in range(bins):
            records, started, ended = await client.closed_loop(
                closed_rng, CLOSED_BIN_S)
            after = probe.slowdown()
            closed.append((records, started, ended, (before + after) / 2.0))
            before = after
    return open_records, closed


def _summary(open_records: List[Record], closed) -> dict:
    """Host-normalized latencies (open loop) and throughput (closed)."""
    closed_records = [r for records, _, _, _ in closed for r in records]
    everything = open_records + closed_records
    failed = [r for r in everything if r.outcome != "ok"]
    verified = sum(1 for r in closed_records if r.outcome == "ok")
    busy = sum((end - start) / slowdown for _, start, end, slowdown in closed)
    window = max(1, int(OPEN_RATE * OPEN_WINDOW_S))
    summary = summarize([[r.latency / r.slowdown
                          for r in open_records[i:i + window]]
                         for i in range(0, len(open_records), window)],
                        verified, busy)
    summary.update({
        "attempted": len(everything),
        "failed": len(failed),
        "mismatches": sum(1 for r in failed if r.outcome == "mismatch"),
        "lateness_p99_ms":
            1e3 * quantile([r.lateness for r in open_records], 0.99),
    })
    return summary


def _check(summary: dict, notes: List[str]) -> bool:
    ok = summary["mismatches"] == 0
    if summary["lateness_p99_ms"] > LATENESS_BOUND_MS:
        notes.append(f"invalid: generator p99 lateness "
                     f"{summary['lateness_p99_ms']:.2f} ms exceeds "
                     f"{LATENESS_BOUND_MS} ms")
        ok = False
    return ok


def run(seed: int, seconds: float, workdir: str, setups: int,
        cycles_per_permutation: int) -> dict:
    with HostProbe() as probe:
        return asyncio.run(_run(seed, seconds, workdir, setups,
                                cycles_per_permutation, probe))


async def _run(seed, seconds, workdir, setups, cycles_per_permutation,
               probe):
    message = rng_for(seed, "serve", "probe").randbytes(SMALL)
    setup_times = []
    for k in range(setups):
        daemon, setup = await _boot(workdir, f"setup{k}", False, message,
                                    probe)
        setup_times.append(setup)
        if k < setups - 1:
            daemon.stop()
    try:
        open_records, closed = await _phases(daemon, seed, seconds, False,
                                             "measure", probe)
    finally:
        report = daemon.stop()
    summary = _summary(open_records, closed)
    notes = [f"serve: {len(open_records)} open-loop requests at "
             f"{OPEN_RATE:g}/s, whole-phase p99 "
             f"{summary['run_p99_ms']:.2f} ms with "
             f"{summary['beyond_p99']} beyond it, "
             f"generator p99 lateness {summary['lateness_p99_ms']:.2f} ms; "
             f"{summary['attempted'] - len(open_records)} closed-loop "
             f"requests; daemon outcomes {report['outcomes']}"]
    correct = _check(summary, notes)
    metrics = {
        "setup_s": median(setup_times),
        "ops_per_s": summary["ops_per_s"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_p99_ms": summary["latency_p99_ms"],
        "ok_rate": 1.0 - summary["failed"] / summary["attempted"],
        "peak_rss_mib": report["peak_rss_mib"],
        "sim_cycles_per_byte": mix_cycles_per_byte(cycles_per_permutation),
    }
    return {"correct": correct, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics, "notes": notes}


def trace(seed: int, seconds: float, workdir: str) -> dict:
    with HostProbe() as probe:
        return asyncio.run(_trace(seed, seconds, workdir, probe))


async def _trace(seed, seconds, workdir, probe):
    """Untraced then traced daemon, each for half of ``seconds``."""
    message = rng_for(seed, "serve", "probe").randbytes(SMALL)
    runs = {}
    for traced in (False, True):
        tag = "traced" if traced else "plain"
        daemon, _ = await _boot(workdir, tag, traced, message, probe)
        try:
            phases = await _phases(daemon, seed, seconds / 2, traced, tag,
                                   probe)
        finally:
            report = daemon.stop()
        runs[tag] = (phases, report)
    (open_records, closed), report = runs["traced"]
    plain = _summary(*runs["plain"][0])
    summary = _summary(open_records, closed)
    notes = []
    correct = _check(summary, notes) and _check(plain, notes)

    # Join each open-loop request to the dispatch that hashed it.
    dispatch_of: Dict[str, tuple] = {}
    for started, ended, keys in report["dispatches"]:
        for key in keys:
            dispatch_of[key] = (started, ended)
    joined = [(r, dispatch_of[r.key]) for r in open_records
              if r.outcome == "ok" and r.key in dispatch_of]
    if len(joined) != sum(1 for r in open_records if r.outcome == "ok"):
        notes.append("trace: some requests matched no dispatch")
        correct = False
    latency = [r.latency for r, _ in joined]
    dispatch = [end - start for _, (start, end) in joined]
    client_p50 = median(latency)
    dispatch_p50 = median(dispatch)
    front_end = client_p50 - dispatch_p50
    # Budget closure: the per-request split (front end = latency minus
    # the dispatch that served it) must reproduce the client median.
    split_front = median(lat - d for lat, d in zip(latency, dispatch))
    closure = abs(split_front + dispatch_p50 - client_p50) / client_p50
    busy = 0.0
    for _, start, end, _ in closed:
        busy += interval_union((max(s, start), min(e, end))
                               for s, e, _ in report["dispatches"]
                               if s < end and e > start)
    busy /= sum(end - start for _, start, end, _ in closed)
    items = sum(len(keys) for _, _, keys in report["dispatches"])
    overhead = plain["ops_per_s"] / summary["ops_per_s"] - 1.0
    notes.append(f"serve trace: closure error {closure:.3%} (tolerance "
                 f"{CLOSURE_TOLERANCE:.0%}); tracing overhead "
                 f"{overhead:+.2%} on closed-loop ops/s "
                 f"({plain['ops_per_s']:.1f} untraced, "
                 f"{summary['ops_per_s']:.1f} traced), p50 "
                 f"{plain['latency_p50_ms']:.2f} -> "
                 f"{summary['latency_p50_ms']:.2f} ms")
    if closure > CLOSURE_TOLERANCE:
        correct = False
    outcomes = report["outcomes"]
    metrics = {
        "serve.client.connect_ms": 1e3 * median(
            r.connect for r in open_records if r.connect is not None),
        "serve.client.lateness_p99_ms": summary["lateness_p99_ms"],
        "serve.client.beyond_p99": summary["beyond_p99"],
        "serve.executor.dispatches": len(report["dispatches"]),
        "serve.executor.items_per_dispatch":
            items / max(1, len(report["dispatches"])),
        "serve.executor.dispatch_p50_ms": 1e3 * dispatch_p50,
        "serve.executor.busy_frac": busy,
        "serve.front_end_ms": 1e3 * front_end,
        "parallel_exec.queue_wait_s":
            report["queue_wait_s"] / max(1, report["queue_waits"]),
        "trace.overhead_frac": overhead,
        "trace.closure_error": closure,
    }
    for outcome in OUTCOMES:
        metrics[f"serve.outcomes.{outcome}"] = outcomes.get(outcome, 0)
    return {"correct": correct, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics, "notes": notes}


#: Daemon outcomes reported per traced run (HashServer's outcome names).
OUTCOMES = ("ok", "overloaded", "deadline_exceeded", "error")
CLOSURE_TOLERANCE = 0.15
