"""Helpers shared by the benchmark's parent and child processes.

Nothing here imports ``repro``: the parent process must be able to find
out that the checkout holds no program (and fail) before touching it,
and the child processes import the program only after their codegen
cache directory has been pointed at an empty, private location.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: The checkout root (this file lives in ``<root>/perfbench``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for inputs, codegen caches, sockets and child reports.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: Worker processes and open connections a workload may use.
NPROC = 2

#: Prefix of the program's shared-memory arena segments in /dev/shm.
SHM_PREFIX = "repro_shm"
SHM_DIR = "/dev/shm"

#: The paper pins: permutation cycles and cycles/round per program.
PAPER_PINS = {(64, 1): (2564, 103), (64, 8): (1892, 75), (32, 8): (3620, 147)}

#: The architecture the simulated sponge runs on (``repro hash
#: --simulate`` default: 64-bit, LMUL=8, EleNum=5).
SIM_ARCH = (64, 8, 5)

SHA3_256_RATE = 136


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env(cache_dir: str) -> Dict[str, str]:
    """Environment for a fresh program process with a private cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_CODEGEN_CACHE"] = cache_dir
    env.pop("REPRO_SOA_LANES", None)
    return env


def shm_segments() -> set:
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return set()
    return {name for name in names if name.startswith(SHM_PREFIX)}


def sha3_256_permutations(size: int) -> int:
    """Keccak-f calls SHA3-256 needs for a ``size``-byte message."""
    return size // SHA3_256_RATE + 1


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (the smallest sample with rank >= q*n)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def beyond(values: Sequence[float], q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` quantile."""
    cut = quantile(values, q)
    return sum(1 for v in values if v > cut)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def summarize(rounds: Sequence[Sequence[float]], verified: int,
              busy_s: float) -> Dict[str, float]:
    """End-to-end figures from host-normalized operation times.

    ``rounds`` holds the operation times of each round (a pass over the
    inputs, or a one-second serve window).  Latency percentiles are
    taken within each round and the median over rounds is reported: a
    stall of the shared host delays every operation queued behind it,
    and this way it moves one round, not the result.  The percentile
    over the whole run and the samples beyond it are returned beside.
    """
    everything = [t for times in rounds for t in times]
    return {
        "ops_per_s": verified / busy_s,
        "latency_p50_ms": 1e3 * median(quantile(t, 0.50) for t in rounds),
        "latency_p99_ms": 1e3 * median(quantile(t, 0.99) for t in rounds),
        "run_p99_ms": 1e3 * quantile(everything, 0.99),
        "beyond_p99": beyond(everything, 0.99),
    }


def rng_for(seed: int, workload: str, stream: str) -> random.Random:
    """An independent, reproducible stream per (seed, workload, purpose)."""
    return random.Random(f"{seed}:{workload}:{stream}")


def interval_union(intervals: Iterable[Sequence[float]]) -> float:
    """Total length covered by possibly overlapping [start, end) spans."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((s, e) for s, e in intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


#: Iterations of the host-speed probe loop, and the loop's time on an
#: unloaded reference host (any constant works: it only sets the scale).
PROBE_ITERATIONS = 100_000
PROBE_REF_S = 0.005


def probe_seconds() -> float:
    """Time one fixed pure-Python loop (the host-speed probe)."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - started


class HostProbe:
    """How much slower than the reference the host runs right now.

    Other tenants of a shared host slow it by 10 to 70%, per CPU, for
    seconds at a time, and a whole run can land in such a stretch.  One
    probe process per CPU (``probe.py``, pinned) times a fixed loop on
    demand, all CPUs at once; the slowdown is the mean of their times
    over :data:`PROBE_REF_S`.  A single-process workload pins itself and
    probes only its own CPU.  :meth:`timed` brackets an operation with
    probes; dividing its wall time by the mean slowdown around it gives
    the time it would have taken on the unloaded reference host.  The
    probes run only between operations, never alongside them.
    """

    def __init__(self, cpus: Optional[Sequence[int]] = None) -> None:
        if cpus is None:
            cpus = sorted(os.sched_getaffinity(0))[:NPROC]
        self._procs = [subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "probe.py"),
             str(cpu)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True) for cpu in cpus]
        self._last: Optional[float] = None

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def slowdown(self) -> float:
        for proc in self._procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        times = [float(proc.stdout.readline()) for proc in self._procs]
        self._last = sum(times) / len(times) / PROBE_REF_S
        return self._last

    def timed(self, fn: Callable, *args):
        """``(wall seconds, slowdown, result)`` of ``fn(*args)``.

        The slowdown is the mean of the probes just before and just after
        the call; back-to-back calls share the probe between them.
        """
        before = self._last if self._last is not None else self.slowdown()
        started = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - started
        return elapsed, (before + self.slowdown()) / 2.0, result

    def close(self) -> None:
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            proc.wait(timeout=10)


class SpanTracer:
    """Nested spans around wrapped callables, reduced to per-layer times.

    Single-threaded use only: a stack tracks the open spans, so a
    layer's *self* time is its span minus the part its child spans
    cover, exactly.  ``patch`` swaps a class attribute for a timed
    wrapper and ``restore`` puts every original back.
    """

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        self._patched: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)

    def wrap(self, layer: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                self.self_s[layer] += elapsed - frame[0]
                self.total_s[layer] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, owner, name: str, layer: str,
              on_result: Optional[Callable] = None) -> None:
        original = owner.__dict__[name]
        self._patched.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original, on_result))

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
