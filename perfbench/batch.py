"""The ``batch`` workload: repeated ``repro.run_many`` calls.

Why: the SoA batch kernels, ``BatchSponge`` sub-batching, the pool fork,
span scheduling and the shared-memory transport do the work here; the
serve layer does nothing and the compiled engine is not used.

Shape: ``BATCHES`` batches of ``MESSAGES`` SHA3-256 messages each, with
sizes from 0 B to 4 KiB (a fixed, skewed set of sizes, so every seed
hashes the same number of bytes and permutations); the seed picks the
bytes and the order.  Each call is ``run_many(batch, engine="soa",
workers=NPROC, transport="auto")``; a batch of this size selects the shm
transport.  Calls cycle over the batches in whole passes until the
measured seconds are up.  Every digest is checked against hashlib.
"""

from __future__ import annotations

import hashlib
import time
from typing import List, Tuple

from common import (
    NPROC,
    median,
    rng_for,
    sha3_256_permutations,
    summarize,
)

BATCHES = 4
MESSAGES = 240
MAX_SIZE = 4096
#: The run_many arguments every call uses.
CALL = dict(algorithm="sha3_256", engine="soa", workers=NPROC,
            transport="auto")
#: Architecture run_many hashes on by default (used for the serial floor).
ARCH = (64, 8, 30)

Batch = Tuple[List[bytes], List[bytes]]


def sizes() -> List[int]:
    return [round(MAX_SIZE * (i / (MESSAGES - 1)) ** 2)
            for i in range(MESSAGES)]


def make_batches(seed: int) -> List[Batch]:
    batches = []
    for index in range(BATCHES):
        rng = rng_for(seed, "batch", f"batch-{index}")
        order = sizes()
        rng.shuffle(order)
        messages = [rng.randbytes(size) for size in order]
        batches.append((messages, [hashlib.sha3_256(m).digest()
                                   for m in messages]))
    return batches


def mix_cycles_per_byte(cycles_per_permutation: int) -> float:
    perms = sum(sha3_256_permutations(size) for size in sizes())
    return cycles_per_permutation * perms / sum(sizes())


def call(batch: Batch) -> Tuple[float, int]:
    """One run_many call: (seconds, wrong digests)."""
    from repro import run_many

    messages, expected = batch
    started = time.perf_counter()
    digests = run_many(messages, **CALL)
    elapsed = time.perf_counter() - started
    return elapsed, sum(1 for d, e in zip(digests, expected) if d != e)


def measure(batches: List[Batch], seconds: float, probe,
            on_call=None) -> dict:
    """Whole passes over ``batches`` until ``seconds`` have elapsed; a
    pass is a round."""
    wall: List[float] = []
    rounds: List[List[float]] = []
    failed = 0
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        normalized: List[float] = []
        for batch in batches:
            elapsed, slowdown, (_, bad) = probe.timed(on_call or call, batch)
            wall.append(elapsed)
            normalized.append(elapsed / slowdown)
            failed += bad
        rounds.append(normalized)
    attempted = len(wall) * MESSAGES
    result = summarize(rounds, attempted - failed, sum(map(sum, rounds)))
    result.update(wall=wall, attempted=attempted, failed=failed)
    return result


def trace(batches: List[Batch], seconds: float, probe, plain: dict) -> dict:
    """Per-layer numbers from a traced pass set (metrics armed)."""
    from repro.observability import metrics
    from repro.programs import batch_driver

    registry = metrics.registry()
    totals = {"task_s": 0.0, "wait_s": 0.0, "waits": 0, "steals": 0,
              "shm_bytes": 0, "kernel_calls": 0, "lane_slots": 0}

    def traced_call(batch: Batch):
        before = registry.snapshot()
        result = call(batch)
        change = metrics.delta(before, registry.snapshot())

        def series(name):
            return change.get(name, {}).get("series", [])

        for entry in series("pool_worker_task_seconds"):
            totals["task_s"] += entry["value"]["sum"]
        for entry in series("pool_worker_queue_wait_seconds"):
            totals["wait_s"] += entry["value"]["sum"]
            totals["waits"] += entry["value"]["count"]
        for entry in series("pool_steal_total"):
            totals["steals"] += entry["value"]
        for entry in series("pool_shm_bytes_total"):
            totals["shm_bytes"] += entry["value"]
        for entry in series("sim_soa_kernel_calls_total"):
            totals["kernel_calls"] += entry["value"]
            totals["lane_slots"] += entry["value"] * int(
                entry["labels"]["lanes"])
        return result

    metrics.arm()
    try:
        traced = measure(batches, seconds, probe, traced_call)
    finally:
        metrics.disarm()
    latencies = traced["wall"]
    calls = len(latencies)
    call_total = sum(latencies)
    perms = calls // BATCHES * sum(sha3_256_permutations(s)
                                   for s in sizes())

    serial, roofline = [], []
    for messages, _ in batches:
        batch_driver.hash_messages("sha3_256", 32, ARCH, "soa", messages)
        started = time.perf_counter()
        batch_driver.hash_messages("sha3_256", 32, ARCH, "soa", messages)
        serial.append(time.perf_counter() - started)
        started = time.perf_counter()
        for message in messages:
            hashlib.sha3_256(message).digest()
        roofline.append(time.perf_counter() - started)
    call_s = median(latencies)
    overhead = plain["ops_per_s"] / traced["ops_per_s"] - 1.0
    return {
        "traced": traced,
        "metrics": {
            "programs.run_many.call_s": call_s,
            "parallel_exec.worker_task_s": totals["task_s"] / calls,
            "parallel_exec.worker_busy_frac":
                totals["task_s"] / (NPROC * call_total),
            "parallel_exec.queue_wait_s":
                totals["wait_s"] / max(1, totals["waits"]),
            "parallel_exec.steals": totals["steals"] / calls,
            "parallel_exec.shm_bytes": totals["shm_bytes"] / calls,
            "sim.soa.kernel_calls": totals["kernel_calls"] / calls,
            "sim.soa.lane_occupancy":
                perms / max(1, totals["lane_slots"]),
            "programs.hash_messages.serial_s": median(serial),
            "batch.hashlib_roofline_x": call_s / median(roofline),
            "trace.overhead_frac": overhead,
        },
    }
