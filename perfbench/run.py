"""The repository benchmark: one command, three workloads, every output checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {serve,batch,simhash} --seed N \\
        --seconds S --trace {0,1}

The workloads are the three user paths of the program (see the module
docstrings of ``serve.py``, ``batch.py`` and ``simhash.py`` for why each
exists and what it sends):

* ``serve``   -- a ``repro serve`` daemon answering SHA3-256 requests;
* ``batch``   -- repeated ``repro.run_many`` calls on the SoA engine;
* ``simhash`` -- in-process ``repro hash --simulate`` invocations.

The seed generates every input; the program only ever sees the bytes.

Isolation: every program process (benchmark child, daemon) is fresh and
gets its own empty ``REPRO_CODEGEN_CACHE`` under ``.perfbench_work/``,
so no kernel compiled by another commit can be served and set-up time
does not depend on ``~/.cache``; the directory is removed afterwards.
A run fails its check if a ``/dev/shm/repro_shm*`` segment outlives it.

Correctness: every digest is checked against hashlib, and every run
first reproduces the paper pins (2564/1892/3620 permutation cycles and
103/75/147 cycles/round) with traced ``repro.run``.

Host time: the shared host this was built on slows every CPU by 10 to
70% for seconds at a time, independently per CPU, so raw wall times of
one commit disagreed by 15-30% between runs.  ``common.HostProbe``
therefore times a fixed loop on every CPU just before and just after
each operation (or each serve window), and every host time below is the
wall time divided by the mean slowdown around it: the time on an
unloaded reference host.  The probes never run alongside the program.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``
(all host time except ``sim_*``):

* ``setup_s`` -- median over ``SETUP_SAMPLES`` fresh processes of the
  time from spawning the process to its first verified result (import,
  kernel compile, pool fork or daemon boot included);
* ``ops_per_s`` -- verified digests per second of busy time (``serve``:
  closed loop);
* ``latency_p50_ms``/``latency_p99_ms`` -- per user operation: an HTTP
  request timed from its scheduled send (``serve``, open loop), a
  ``run_many`` call (``batch``), a CLI invocation (``simhash``).  The
  percentiles are taken per round (a pass over the inputs, a one-second
  serve window) and the median over rounds is reported, since one stall
  of the host delays everything queued behind it; the whole-run p99 and
  the samples beyond it are printed to stderr;
* ``ok_rate`` -- verified operations over attempted ones, i.e. one minus
  the error rate (refusals, errors and wrong digests all count);
* ``peak_rss_mib`` -- peak RSS of the process doing the work plus that of
  its largest worker (``serve``: the daemon and its pool worker);
* ``sim_cycles_per_byte`` -- simulated cycles per input byte on the
  paper's 64-bit LMUL=8 processor: measured over the invocations for
  ``simhash``, and for the other two the simulated per-permutation cost
  times the permutations their fixed message-size mix needs.  It is
  deterministic and must repeat exactly.

``--trace 1`` runs the workload untraced and then traced, prints the
per-layer metrics named in ``BENCHMARK.json`` (a layer a workload does
not exercise reads 0), the tracing overhead and the budget-closure
check.  The last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback

import batch
import serve
import simhash
from common import (
    PAPER_PINS,
    ROOT,
    SIM_ARCH,
    SRC,
    WORK_ROOT,
    HostProbe,
    child_env,
    median,
    program_present,
    read_json,
    shm_segments,
)

SETUP_SAMPLES = 5
CHILD_TIMEOUT = 150.0


def check_pins():
    """Paper pins via traced ``repro.run``; returns (problems, cycles).

    ``cycles`` is the simulated cost of one permutation on ``SIM_ARCH``
    with state load/store, the program ``repro hash --simulate`` runs.
    """
    import repro
    from repro.keccak.state import KeccakState

    problems = []
    state = KeccakState(list(range(25)))
    for (elen, lmul), (perm_cycles, per_round) in PAPER_PINS.items():
        program = repro.build_program(elen, lmul, 5)
        result = repro.run(program, [state], trace=True)
        if result.states[0] != repro.keccak_f1600(state):
            problems.append(f"{elen}-bit LMUL={lmul}: wrong state")
        if (result.permutation_cycles, result.cycles_per_round) != \
                (perm_cycles, per_round):
            problems.append(
                f"{elen}-bit LMUL={lmul}: {result.permutation_cycles} "
                f"cycles, {result.cycles_per_round} cycles/round; paper "
                f"{perm_cycles}, {per_round}")
    program = repro.build_program(*SIM_ARCH, include_memory_io=True)
    cycles = repro.run(program, [state], engine="fused").stats.cycles
    return problems, cycles


def spawn(workload: str, mode: str, args, workdir: str, tag: str,
          inputs=None) -> dict:
    """One fresh child process with a private cache; returns its report."""
    cache = os.path.join(workdir, f"cache-{tag}")
    report = os.path.join(workdir, f"{tag}.json")
    command = [sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
               workload, mode, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--report", report]
    if inputs is not None:
        command += ["--inputs", inputs]
    spawned = time.monotonic()
    # A session of its own, so a child that hangs is killed together with
    # its pool workers.
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(cache),
                            stdout=sys.stderr.fileno(),
                            start_new_session=True)
    try:
        proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} child exited with "
                           f"{proc.returncode}")
    data = read_json(report)
    data["setup_s"] = data["first_ok"] - spawned
    shutil.rmtree(cache, ignore_errors=True)
    return data


def run_child_workload(args, workdir: str, cycles_per_permutation: int):
    inputs = None
    if args.workload == "simhash":
        directory = os.path.join(workdir, "inputs")
        os.makedirs(directory)
        inputs = os.path.join(workdir, "plan.json")
        with open(inputs, "w", encoding="utf-8") as handle:
            json.dump(simhash.write_inputs(args.seed, directory), handle)
    notes = []
    correct = True
    if args.trace:
        report = spawn(args.workload, "trace", args, workdir, "trace",
                       inputs)
        layers = report["layers"]
        notes.append(
            f"{args.workload} trace: tracing overhead "
            f"{layers['trace.overhead_frac']:+.2%} on ops/s")
        correct = report["probe_ok"] and report["failed"] == 0
        if "trace.closure_error" in layers:
            error = layers["trace.closure_error"]
            notes.append(f"{args.workload} trace: closure error "
                         f"{error:.3%} (tolerance "
                         f"{simhash.CLOSURE_TOLERANCE:.0%})")
            correct = correct and error <= simhash.CLOSURE_TOLERANCE
        return {"correct": correct, "attempted": report["attempted"],
                "failed": report["failed"], "metrics": layers,
                "notes": notes}
    setups = []
    with HostProbe() as probe:
        for k in range(SETUP_SAMPLES):
            before = probe.slowdown()
            report = spawn(args.workload, "setup", args, workdir,
                           f"setup{k}", inputs)
            slowdown = (before + probe.slowdown()) / 2.0
            setups.append(report["setup_s"] / slowdown)
            correct = correct and report["probe_ok"]
    measured = spawn(args.workload, "measure", args, workdir, "measure",
                     inputs)
    if args.workload == "batch":
        cycles_per_byte = batch.mix_cycles_per_byte(cycles_per_permutation)
    else:
        cycles_per_byte = measured["cycles_per_byte"]
    notes.append(f"{args.workload}: {measured['attempted']} digests; "
                 f"whole-run p99 {measured['run_p99_ms']:.2f} ms with "
                 f"{measured['beyond_p99']} operations beyond it")
    metrics = {
        "setup_s": median(setups),
        "ops_per_s": measured["ops_per_s"],
        "latency_p50_ms": measured["latency_p50_ms"],
        "latency_p99_ms": measured["latency_p99_ms"],
        "ok_rate": 1.0 - measured["failed"] / measured["attempted"],
        "peak_rss_mib": measured["peak_rss_mib"],
        "sim_cycles_per_byte": cycles_per_byte,
    }
    correct = correct and measured["probe_ok"] and measured["failed"] == 0
    return {"correct": correct, "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics, "notes": notes}


def run_workload(args, workdir: str, cycles_per_permutation: int) -> dict:
    if args.workload == "serve":
        if args.trace:
            return serve.trace(args.seed, args.seconds, workdir)
        return serve.run(args.seed, args.seconds, workdir, SETUP_SAMPLES,
                         cycles_per_permutation)
    return run_child_workload(args, workdir, cycles_per_permutation)


def emit(result: dict, spec: dict, trace: bool) -> dict:
    """The result line: every metric ``BENCHMARK.json`` names, in order."""
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name not in result["metrics"] and not trace:
            raise KeyError(f"workload produced no {name}")
        value = result["metrics"].get(name, 0)
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve", "batch", "simhash"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not program_present():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    spec = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # This process imports the program too (pin check, serve client).
    os.environ["REPRO_CODEGEN_CACHE"] = os.path.join(workdir, "cache-parent")
    sys.path.insert(0, SRC)
    shm_before = shm_segments()
    try:
        problems, cycles_per_permutation = check_pins()
        result = run_workload(args, workdir, cycles_per_permutation)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    leaked = sorted(shm_segments() - shm_before)
    for note in result["notes"]:
        print(note, file=sys.stderr)
    for problem in problems:
        print(f"pin mismatch: {problem}", file=sys.stderr)
    if leaked:
        print(f"leaked shared-memory segments: {leaked}", file=sys.stderr)
    result["correct"] = result["correct"] and not problems and not leaked
    line = emit(result, spec, bool(args.trace))
    for name, metric in line["metrics"].items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
