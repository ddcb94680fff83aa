"""One fresh program process for the ``batch`` or ``simhash`` workload.

Started by ``run.py`` with ``PYTHONPATH`` on the checkout's ``src`` and
``REPRO_CODEGEN_CACHE`` on a private, empty directory::

    python3 perfbench/child.py WORKLOAD MODE --seed N --seconds S \\
        --report FILE [--inputs FILE]

Every mode first produces one verified result and records the monotonic
time it was verified, so the parent can time set-up from the moment it
spawned this process.  ``setup`` stops there; ``measure`` then runs the
workload untraced for ``S`` seconds; ``trace`` runs it untraced for
``S/2`` and traced for ``S/2``.  Operation times are divided by the host
slowdown a :class:`~common.HostProbe` measures around each operation.
"""

from __future__ import annotations

import argparse
import os
import time

import batch
import simhash
from common import HostProbe, peak_rss_mib, read_json, write_json


def _end_to_end(result: dict) -> dict:
    keys = ("ops_per_s", "latency_p50_ms", "latency_p99_ms", "run_p99_ms",
            "beyond_p99", "attempted", "failed")
    return {key: result[key] for key in keys}


def _traced(plain: dict, traced: dict) -> dict:
    """The traced half's figures; failures of both halves count."""
    report = _end_to_end(traced["traced"])
    report["attempted"] += plain["attempted"]
    report["failed"] += plain["failed"]
    report["layers"] = traced["metrics"]
    return report


def run_batch(mode: str, seed: int, seconds: float) -> dict:
    batches = batch.make_batches(seed)
    _, wrong = batch.call(batches[0])
    report = {"first_ok": time.monotonic(), "probe_ok": wrong == 0}
    if mode == "setup":
        return report
    with HostProbe() as probe:
        if mode == "measure":
            report.update(_end_to_end(batch.measure(batches, seconds,
                                                    probe)))
        else:
            plain = batch.measure(batches, seconds / 2, probe)
            report.update(_traced(plain, batch.trace(batches, seconds / 2,
                                                     probe, plain)))
        # Taken while the probe processes are unreaped: only the pool
        # workers count as children.
        report["peak_rss_mib"] = peak_rss_mib()
    return report


def run_simhash(mode: str, seed: int, seconds: float, inputs: str) -> dict:
    from repro.observability import metrics

    invocations = simhash.load(read_json(inputs))
    first = next(i for i in invocations
                 if i.argv[1] == "sha3_256" and i.size == 0)
    before = metrics.registry().snapshot()
    if mode == "trace":
        metrics.arm()
    ok, _, _ = simhash.invoke(first)
    report = {"first_ok": time.monotonic(), "probe_ok": ok}
    metrics.disarm()
    if mode == "setup":
        return report
    # One process does all the work here: pin it, and probe that CPU.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    with HostProbe([cpu]) as probe:
        if mode == "measure":
            result = simhash.measure(invocations, seconds, probe)
            report.update(_end_to_end(result))
            report["cycles_per_byte"] = result["cycles"] / result["bytes"]
        else:
            counts = simhash.setup_counts(before)
            plain = simhash.measure(invocations, seconds / 2, probe)
            report.update(_traced(plain, simhash.trace(
                invocations, seconds / 2, probe, plain, counts)))
        report["peak_rss_mib"] = peak_rss_mib()
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("batch", "simhash"))
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--inputs", default=None)
    args = parser.parse_args()
    if args.workload == "batch":
        report = run_batch(args.mode, args.seed, args.seconds)
    else:
        report = run_simhash(args.mode, args.seed, args.seconds, args.inputs)
    write_json(args.report, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
