"""The ``simhash`` workload: in-process ``repro hash --simulate`` calls.

Why: the compiled engine, ``Session.run`` marshalling, the sponge
plumbing and the per-invocation set-up (build, assemble, processor
creation, predecode) do the work; there is no pool and no SoA kernel.

Shape: one pass is ``ABSORB`` absorb-heavy ``sha3_256`` invocations over
files from 0 B to 64 KiB (a fixed geometric ladder of sizes) plus
``SQUEEZE`` squeeze-heavy ``shake_128`` invocations over short files
with ``--length`` from 2 to 16 KiB, which drive the sponge the other
way round.  The seed picks the file bytes and the order of the pass.
Each invocation is ``repro.cli.main(["hash", ALG, "--file", F,
"--simulate", ...])`` in this process, with its stdout (the digest) and
stderr (permutations and simulated cycles) captured; every digest is
checked against hashlib.  Passes repeat until the measured seconds are
up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import time
from typing import List

from common import rng_for, summarize

ABSORB = 40
MAX_FILE = 65536
SQUEEZE = 8
SQUEEZE_LENGTHS = (2048, 4096, 8192, 16384)
#: Largest allowed gap between the layers' summed self times and the
#: stopwatched wall time of the same invocations (share of the latter).
CLOSURE_TOLERANCE = 0.05
_COUNTS = re.compile(r"# (\d+) permutations, (\d+) simulated cycles")


class Invocation:
    __slots__ = ("argv", "expected", "size")

    def __init__(self, argv: List[str], expected: str, size: int) -> None:
        self.argv = argv
        self.expected = expected
        self.size = size


def _absorb_sizes() -> List[int]:
    return [round(MAX_FILE ** (i / (ABSORB - 1))) - 1
            for i in range(ABSORB)]


def write_inputs(seed: int, directory: str) -> List[dict]:
    """Write one pass's input files; returns the pass, in order."""
    rng = rng_for(seed, "simhash", "inputs")
    specs = [("sha3_256", size, None) for size in _absorb_sizes()]
    specs += [("shake_128", 16 + 32 * i,
               SQUEEZE_LENGTHS[i % len(SQUEEZE_LENGTHS)])
              for i in range(SQUEEZE)]
    rng.shuffle(specs)
    plan = []
    for index, (algorithm, size, length) in enumerate(specs):
        data = rng.randbytes(size)
        path = os.path.join(directory, f"in{index}.bin")
        with open(path, "wb") as handle:
            handle.write(data)
        argv = ["hash", algorithm, "--file", path, "--simulate"]
        if length is None:
            expected = hashlib.sha3_256(data).hexdigest()
        else:
            argv += ["--length", str(length)]
            expected = hashlib.shake_128(data).hexdigest(length)
        plan.append({"argv": argv, "expected": expected, "size": size})
    return plan


def load(plan: List[dict]) -> List[Invocation]:
    return [Invocation(p["argv"], p["expected"], p["size"]) for p in plan]


def invoke(invocation: Invocation, main=None):
    """One CLI call: (ok, permutations, simulated cycles)."""
    if main is None:
        from repro.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(invocation.argv)
    counts = _COUNTS.search(err.getvalue())
    ok = status == 0 and counts is not None and \
        out.getvalue().strip() == invocation.expected
    if counts is None:
        return ok, 0, 0
    return ok, int(counts.group(1)), int(counts.group(2))


def measure(invocations: List[Invocation], seconds: float, probe,
            main=None) -> dict:
    """Whole passes until ``seconds`` have elapsed; a pass is a round."""
    wall: List[float] = []
    rounds: List[List[float]] = []
    failed = perms = cycles = size = 0
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        normalized: List[float] = []
        for invocation in invocations:
            elapsed, slowdown, (ok, p, c) = probe.timed(invoke, invocation,
                                                       main)
            wall.append(elapsed)
            normalized.append(elapsed / slowdown)
            failed += not ok
            perms += p
            cycles += c
            size += invocation.size
        rounds.append(normalized)
    result = summarize(rounds, len(wall) - failed,
                       sum(map(sum, rounds)))
    result.update(wall=wall, attempted=len(wall), failed=failed,
                  passes=len(rounds), perms=perms, cycles=cycles,
                  bytes=size)
    return result


def trace(invocations: List[Invocation], seconds: float, probe,
          plain: dict, setup_counts: dict) -> dict:
    """Per-layer times from spans around the layers' public calls."""
    from common import SpanTracer
    from repro import cli
    from repro.keccak.sponge import Sponge
    from repro.observability import metrics
    from repro.programs.session import Session
    from repro.sim.processor import SIMDProcessor

    instructions = [0]

    def count(stats) -> None:
        instructions[0] += stats.instructions

    tracer = SpanTracer()
    tracer.patch(Sponge, "absorb", "keccak.sponge")
    tracer.patch(Sponge, "squeeze", "keccak.sponge")
    tracer.patch(Session, "run", "programs.session")
    tracer.patch(SIMDProcessor, "run", "sim.processor", count)
    timed_main = tracer.wrap("cli", cli.main)
    registry = metrics.registry()
    before = registry.snapshot()
    metrics.arm()
    try:
        traced = measure(invocations, seconds, probe, timed_main)
    finally:
        metrics.disarm()
        tracer.restore()
    counts = _event_counts(metrics.delta(before, registry.snapshot()))
    calls = traced["attempted"]
    passes = traced["passes"]
    layers = ("cli", "keccak.sponge", "programs.session", "sim.processor")
    self_total = sum(tracer.self_s[layer] for layer in layers)
    # Budget closure: the four layers' self times against the wall time
    # of the same invocations, stopwatched outside the tracer.
    wall = sum(traced["wall"])
    closure = abs(self_total - wall) / wall
    overhead = plain["ops_per_s"] / traced["ops_per_s"] - 1.0
    processor_s = tracer.total_s["sim.processor"]
    return {
        "traced": traced,
        "metrics": {
            "sim.permutations": traced["perms"] / passes,
            "sim.processor.run_s": processor_s / calls,
            "sim.mips": instructions[0] / processor_s / 1e6,
            "programs.session.self_s":
                tracer.self_s["programs.session"] / calls,
            "keccak.sponge.self_s": tracer.self_s["keccak.sponge"] / calls,
            "cli.invocation_self_s": tracer.self_s["cli"] / calls,
            "sim.predecode.misses_per_pass":
                counts.get(("sim_predecode_cache_total", "miss"), 0)
                / passes,
            "sim.predecode.hits_per_pass":
                counts.get(("sim_predecode_cache_total", "hit"), 0)
                / passes,
            "sim.codegen.memory_hits_per_pass":
                counts.get(("sim_codegen_total", "memory_hit"), 0)
                / passes,
            "sim.codegen.setup_compiles":
                setup_counts.get(("sim_codegen_total", "compile"), 0),
            "trace.overhead_frac": overhead,
            "trace.closure_error": closure,
        },
    }


def _event_counts(change: dict) -> dict:
    out = {}
    for name in ("sim_predecode_cache_total", "sim_codegen_total"):
        for entry in change.get(name, {}).get("series", []):
            out[(name, entry["labels"]["event"])] = entry["value"]
    return out


def setup_counts(registry_before: dict) -> dict:
    from repro.observability import metrics

    return _event_counts(metrics.delta(registry_before,
                                       metrics.registry().snapshot()))

