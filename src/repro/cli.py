"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``tables``
    Regenerate Tables 7 and 8 and the Section 4.2 headline report.
``sweep``
    Design-space sweep with Pareto frontier (includes the fused variant).
``explore``
    Distributed design-space exploration across timing models: sweep
    (EleNum, ELEN, LMUL, register banks, issue width) over the worker
    pool, join the calibrated area model, emit an area-vs-throughput
    Pareto-front artifact (``--out``), and verify the paper pins
    (``--check-pins``).
``hash``
    Hash a file or string with any SHA-3 family function — optionally
    executing every permutation on the processor simulator.
``run``
    Run one Keccak configuration on the simulator and print its metrics.
``batch``
    Hash a batch of generated messages across a worker pool
    (``repro.run_many``), optionally verifying against ``hashlib``;
    supports checkpoint/resume (``--resume``) and the hardened pool's
    quarantine report (``--quarantine-report``).
``serve``
    Run the traffic-hardened hashing daemon: asyncio front end over a
    unix socket and/or TCP with token-bucket admission, bounded queues,
    per-request deadlines, batch coalescing onto the engines, rolling
    worker restarts and graceful SIGTERM drain (``/metrics`` and
    ``/debug/timeline`` expose the observability registry).
``loadgen``
    Open-loop load generator against a running daemon; reports
    per-outcome counts and p50/p99 latency, optionally verifying every
    digest against ``hashlib`` (exit 1 on mismatch or too few
    successes).
``faultcampaign``
    Seeded fault-injection campaign over the execution engines; fails
    (exit 1) on any silent divergence.
``stats``
    The benchmark trajectory: print the committed
    ``benchmarks/baseline/`` snapshot, validate it
    (``--check-baseline``), diff a fresh ``--bench-json`` run against it
    (``--bench-dir``, exit 1 on >15% normalized wall-clock regressions
    or any cycle change), or refresh it (``--update-baseline``).
``profile``
    Run a workload with metrics armed and print the registry snapshot;
    ``--timeline FILE`` additionally exports a Chrome trace_event JSON
    viewable in Perfetto.
``asm`` / ``dis``
    Assemble a source file to machine words / disassemble words back.

Bad input (unreadable files, malformed hex, invalid parameters) exits
with status 2 and a one-line diagnostic on stderr; simulation or pool
failures exit 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from .assembler import assemble, disassemble
from .keccak.hashes import SHA3_VARIANTS, SHAKE_VARIANTS
from .sim.exceptions import SimulationError


def _cmd_tables(args: argparse.Namespace) -> int:
    from .eval import (
        generate_report,
        generate_table7,
        generate_table8,
        render_report,
        render_table,
    )

    print(render_table(generate_table7(), "Table 7 — 64-bit architectures"))
    print()
    print(render_table(generate_table8(), "Table 8 — 32-bit architectures"))
    print()
    print(render_report(generate_report()))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .eval import pareto_frontier, render_sweep, sweep_design_space

    points = sweep_design_space(include_fused=not args.no_fused)
    print(render_sweep(points))
    print()
    print("Pareto frontier (throughput vs area):")
    for p in pareto_frontier(points):
        print(f"  {p.label:48s} {p.throughput_e3:9.2f} tput e3  "
              f"{p.area_slices:8.0f} slices")
    return 0


def _parse_csv_ints(text: str, what: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list, "
                         f"got {text!r}")


def _cmd_explore(args: argparse.Namespace) -> int:
    from .eval import explore as explore_mod

    elenums = _parse_csv_ints(args.elenums, "--elenums")
    banks = _parse_csv_ints(args.banks, "--banks")
    issue_widths = _parse_csv_ints(args.issue_widths, "--issue-widths")
    variants = []
    for part in args.variants.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            elen, lmul = part.split("x")
            variants.append((int(elen), int(lmul)))
        except ValueError:
            raise ValueError(f"--variants entries look like 64x8, "
                             f"got {part!r}")
    chaining = (False, True) if args.chaining else (False,)
    grid = explore_mod.explore_grid(
        elenums=elenums, variants=variants, banks=banks,
        issue_widths=issue_widths, chaining=chaining)
    results = explore_mod.explore(grid, workers=args.workers,
                                  transport=args.transport)
    print(explore_mod.render_explore(results, top=args.top))
    doc = explore_mod.build_artifact(results)
    explore_mod.validate_artifact(doc)
    if args.out:
        path = explore_mod.write_artifact(doc, args.out)
        print(f"# wrote {len(doc['points'])}-point Pareto artifact to "
              f"{path}", file=sys.stderr)
    if args.check_pins:
        problems = explore_mod.check_pins(doc)
        if problems:
            for problem in problems:
                print(f"pin mismatch: {problem}", file=sys.stderr)
            return 1
        defaults = sum(1 for row in doc["points"] if row["default_timing"])
        print(f"# pins ok: {defaults} default-timing row(s) reproduce "
              f"the paper cycle pins exactly", file=sys.stderr)
    return 0


def _cmd_hash(args: argparse.Namespace) -> int:
    if args.file:
        with open(args.file, "rb") as handle:
            message = handle.read()
    else:
        message = args.string.encode()

    if args.simulate:
        from .programs import SimulatedPermutation
        from .keccak.sponge import Sponge, SHA3_SUFFIX, SHAKE_SUFFIX

        perm = SimulatedPermutation(elen=args.elen, lmul=args.lmul,
                                    elenum=5, engine=args.engine)
        if args.algorithm in SHA3_VARIANTS:
            bits = SHA3_VARIANTS[args.algorithm].output_bits
            sponge = Sponge(2 * bits, SHA3_SUFFIX, permutation=perm)
            digest = sponge.absorb(message).squeeze(bits // 8)
        else:
            strength = SHAKE_VARIANTS[args.algorithm].strength_bits
            sponge = Sponge(2 * strength, SHAKE_SUFFIX, permutation=perm)
            digest = sponge.absorb(message).squeeze(args.length)
        print(digest.hex())
        print(f"# {perm.call_count} permutations, "
              f"{perm.total_cycles} simulated cycles "
              f"({args.elen}-bit, LMUL={args.lmul})", file=sys.stderr)
        return 0

    if args.algorithm in SHA3_VARIANTS:
        print(SHA3_VARIANTS[args.algorithm](message).hexdigest())
    else:
        print(SHAKE_VARIANTS[args.algorithm](message).hexdigest(args.length))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import random

    from .keccak.permutation import keccak_f1600
    from .keccak.state import KeccakState
    from .programs import build_program, run

    rng = random.Random(args.seed)
    states = [
        KeccakState([rng.getrandbits(64) for _ in range(25)])
        for _ in range(args.states)
    ]
    program = build_program(args.elen, args.lmul, args.elenum)
    # Tracing records per-instruction cycles for the per-round metrics
    # but disqualifies engines that cannot reproduce it (compiled, soa);
    # an explicit --engine pick of one of those runs untraced (cycle
    # metrics fall back to whole-run totals — zero for functional
    # engines, which own no cycle model).
    from .sim import engines as engine_registry

    spec = engine_registry.maybe_get(args.engine)
    trace = spec is None or spec.caps.tracing
    result = run(program, states, trace=trace, engine=args.engine)
    correct = result.states == [keccak_f1600(s) for s in states]
    print(f"program:            {program.name} (EleNum={args.elenum}, "
          f"{args.states} state(s))")
    print(f"functionally exact: {correct}")
    print(f"cycles/round:       {result.cycles_per_round:.0f}")
    print(f"permutation cycles: {result.permutation_cycles}")
    print(f"cycles/byte:        {result.cycles_per_byte:.2f}")
    print(f"throughput x10^3:   {result.throughput_e3:.2f}")
    return 0 if correct else 1


def _raise_keyboard_interrupt(signum, frame):
    raise KeyboardInterrupt


def _cmd_batch(args: argparse.Namespace) -> int:
    import hashlib
    import random
    import signal
    import time

    from .parallel_exec import RetryPolicy
    from .programs import run_many, run_many_report

    rng = random.Random(args.seed)
    messages = [rng.randbytes(args.size) for _ in range(args.count)]
    hardened = args.resume or args.quarantine_report
    start = time.perf_counter()
    # SIGTERM's default disposition kills the process without unwinding:
    # finally blocks never run, so shm arena leases leak and the
    # checkpoint manifest can be mid-update.  Routing it (like SIGINT)
    # through KeyboardInterrupt lets the scheduler's cleanup run — the
    # last atomically-written manifest survives and the run is always
    # resumable with --resume.
    previous = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    try:
        if hardened:
            outcome = run_many_report(messages, algorithm=args.algorithm,
                                      length=args.length,
                                      workers=args.workers,
                                      chunk_size=args.chunk_size,
                                      timeout=args.timeout,
                                      policy=RetryPolicy.hardened(),
                                      checkpoint=args.resume,
                                      engine=args.engine,
                                      transport=args.transport)
            digests = outcome.digests
        else:
            outcome = None
            digests = run_many(messages, algorithm=args.algorithm,
                               length=args.length, workers=args.workers,
                               chunk_size=args.chunk_size,
                               timeout=args.timeout,
                               engine=args.engine,
                               transport=args.transport)
    except KeyboardInterrupt:
        if args.resume:
            print(f"repro batch: interrupted; manifest {args.resume} is "
                  f"consistent — rerun with --resume to continue",
                  file=sys.stderr)
        else:
            print("repro batch: interrupted", file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)
    elapsed = time.perf_counter() - start
    print(f"hashed {args.count} messages of {args.size} bytes "
          f"with {args.workers} worker(s) in {elapsed:.2f}s "
          f"({args.count / elapsed:.1f} msg/s)")
    if args.quarantine_report and outcome is not None:
        print(outcome.summary())
    status = 0
    if outcome is not None and not outcome.ok:
        missing = sum(1 for d in digests if d is None)
        print(f"{missing} digest(s) missing from quarantined chunks",
              file=sys.stderr)
        status = 1
    if args.verify:
        # hashlib where it exists; the repository's pure-Python
        # reference path for the tree algorithms hashlib lacks.
        from .serve.loadgen import _expected_digest

        expected = [bytes.fromhex(
            _expected_digest(args.algorithm, args.length, m))
            for m in messages]
        completed = [(got, want) for got, want in zip(digests, expected)
                     if got is not None]
        oracle = "hashlib" if args.algorithm.startswith(("sha3", "shake")) \
            else "the pure-Python reference"
        if any(got != want for got, want in completed):
            print(f"MISMATCH against {oracle} ({args.algorithm})",
                  file=sys.stderr)
            return 1
        print(f"all {len(completed)} digest(s) match {oracle} "
              f"({args.algorithm})")
    elif digests and digests[0] is not None:
        print(digests[0].hex())
    return status


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import HashServer, ServeConfig

    if args.socket is None and args.host is None:
        raise ValueError("serve needs --socket PATH and/or --host ADDR")
    config = ServeConfig(
        socket_path=args.socket, host=args.host, port=args.port,
        workers=args.workers, engine=args.engine,
        max_queue=args.max_queue, rate=args.rate, burst=args.burst,
        batch_window=args.batch_window, max_batch=args.max_batch,
        default_deadline=args.deadline_ms / 1000.0,
        state_path=args.state, drain_grace=args.drain_grace,
        transport=args.transport)
    server = HashServer(config)
    asyncio.run(server.run())
    outcomes = ", ".join(f"{k}={v}" for k, v in
                         sorted(server.outcomes.items())) or "none"
    print(f"repro serve: drained cleanly ({outcomes})")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .serve import run_load

    if args.socket is None and args.host is None:
        raise ValueError("loadgen needs --socket PATH or --host ADDR")
    report = run_load(
        socket_path=args.socket, host=args.host, port=args.port,
        requests=args.requests, rate=args.rate, size=args.size,
        algorithm=args.algorithm, length=args.length,
        deadline_ms=args.deadline_ms, seed=args.seed,
        verify=args.verify)
    print(report.summary())
    if report.mismatches:
        print(f"{report.mismatches} digest mismatch(es) against hashlib",
              file=sys.stderr)
        return 1
    if report.ok < args.min_ok:
        print(f"only {report.ok} ok responses, expected at least "
              f"{args.min_ok}", file=sys.stderr)
        return 1
    return 0


def _cmd_faultcampaign(args: argparse.Namespace) -> int:
    from .resilience import run_campaign
    from .resilience.campaign import MODES, VARIANTS

    variants = tuple(args.variants.split(",")) if args.variants \
        else tuple(VARIANTS)
    modes = tuple(args.modes.split(",")) if args.modes else MODES
    for variant in variants:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant: {variant!r} "
                             f"(choose from {', '.join(VARIANTS)})")
    report = run_campaign(num_faults=args.faults, seed=args.seed,
                          variants=variants, modes=modes,
                          crosscheck=not args.no_crosscheck)
    print(report.summary())
    if not report.zero_silent:
        for result in report.silent_divergences:
            print(f"SILENT: #{result.trial.index} "
                  f"[{result.trial.variant}/{result.trial.mode}] "
                  f"{result.trial.spec.describe()}: {result.detail}",
                  file=sys.stderr)
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .observability import trajectory

    baseline_dir = args.baseline or trajectory.default_baseline_dir()
    if args.update_baseline:
        if not args.bench_dir:
            raise ValueError("--update-baseline requires --bench-dir DIR "
                             "(a fresh --bench-json output directory)")
        fresh = trajectory.load_records(args.bench_dir)
        problems = trajectory.check_baseline(fresh)
        if problems:
            for problem in problems:
                print(f"refusing to update baseline: {problem}",
                      file=sys.stderr)
            return 1
        written = trajectory.write_baseline(fresh, baseline_dir)
        print(f"wrote {len(written)} baseline record(s) to {baseline_dir}")
        return 0

    baseline = trajectory.load_records(baseline_dir)
    if args.check_baseline:
        problems = trajectory.check_baseline(baseline)
        # The committed explore artifact rides in the same directory
        # (EXPLORE_pareto.json — ignored by the BENCH_ loader): when
        # present it must be schema-valid and its default-timing rows
        # must reproduce the paper cycle pins exactly.
        import os

        from .eval import explore as explore_mod

        artifact = os.path.join(baseline_dir, "EXPLORE_pareto.json")
        if os.path.exists(artifact):
            try:
                explore_mod.validate_artifact_file(artifact)
            except ValueError as exc:
                problems.append(f"explore artifact invalid: {exc}")
        if problems:
            for problem in problems:
                print(f"baseline problem: {problem}", file=sys.stderr)
            return 1
        print(f"baseline ok: {len(baseline)} record(s), "
              f"all {len(trajectory.PIN_BENCHES)} paper pin "
              f"benchmark(s) present")
        if os.path.exists(artifact):
            print(f"explore artifact ok: {artifact}")
        if not args.bench_dir:
            return 0
    if args.bench_dir:
        fresh = trajectory.load_records(args.bench_dir)
        report = trajectory.compare(fresh, baseline,
                                    threshold=args.threshold)
        print(report.summary())
        return 0 if report.ok else 1
    print(trajectory.aggregate(baseline))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import random

    from .keccak.state import KeccakState
    from .observability import metrics, timeline
    from .programs import Session, build_program, run_many

    rng = random.Random(args.seed)
    tl = timeline.start() if args.timeline else None
    metrics.arm()
    try:
        if args.workers:
            messages = [rng.randbytes(args.size)
                        for _ in range(args.count)]
            run_many(messages, workers=args.workers,
                     engine=args.engine)
        else:
            states = [
                KeccakState([rng.getrandbits(64) for _ in range(25)])
                for _ in range(args.states)
            ]
            program = build_program(args.elen, args.lmul, args.elenum)
            session = Session(engine=args.engine)
            for _ in range(args.repeat):
                session.run(program, states)
    finally:
        metrics.disarm()
        if tl is not None:
            timeline.stop()
    print(metrics.render_snapshot(metrics.registry().snapshot()))
    if tl is not None:
        path = tl.export(args.timeline)
        print(f"# timeline written to {path} — open in Perfetto "
              f"(ui.perfetto.dev) or chrome://tracing", file=sys.stderr)
    return 0


def _cmd_mix(args: argparse.Namespace) -> int:
    from .eval.instruction_mix import measure_instruction_mix
    from .keccak.state import KeccakState
    from .programs import (
        keccak32_lmul8,
        keccak64_fused,
        keccak64_lmul1,
        keccak64_lmul41,
        keccak64_lmul8,
    )

    builders = {
        "64-lmul1": keccak64_lmul1,
        "64-lmul41": keccak64_lmul41,
        "64-lmul8": keccak64_lmul8,
        "64-fused": keccak64_fused,
        "32-lmul8": keccak32_lmul8,
    }
    selected = [args.variant] if args.variant else list(builders)
    state = [KeccakState(list(range(25)))]
    for name in selected:
        mix = measure_instruction_mix(builders[name].build(5), state)
        print(mix.render())
        print()
    return 0


def _cmd_isa_doc(args: argparse.Namespace) -> int:
    from .isa import ISA
    from .isa.doc import render_isa_reference

    text = render_isa_reference(ISA)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        print(text)
    return 0


def _cmd_asm(args: argparse.Namespace) -> int:
    with open(args.source) as handle:
        source = handle.read()
    program = assemble(source, base_address=args.base)
    if args.listing:
        print(program.listing())
    else:
        for inst in program.instructions:
            print(f"{inst.word:08x}")
    return 0


def _cmd_dis(args: argparse.Namespace) -> int:
    words: List[int] = []
    if args.source == "-":
        text = sys.stdin.read()
    else:
        with open(args.source) as handle:
            text = handle.read()
    for token in text.split():
        words.append(int(token, 16))
    for address_offset, line in enumerate(disassemble(words, args.base)):
        print(f"{args.base + 4 * address_offset:08x}:  {line}")
    return 0


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    from .sim.processor import ENGINES

    parser.add_argument(
        "--engine", choices=ENGINES, default="auto",
        help="simulator execution engine (auto = compiled when eligible, "
             "fused otherwise; soa = functional mega-batch kernels, "
             "digests only)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Custom RISC-V vector extensions for SHA-3 "
                    "(DATE 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="regenerate Tables 7/8 and the report")

    p_sweep = sub.add_parser("sweep", help="design-space sweep + Pareto")
    p_sweep.add_argument("--no-fused", action="store_true",
                         help="exclude the future-work fused variant")

    p_explore = sub.add_parser(
        "explore",
        help="distributed design-space exploration over timing models")
    p_explore.add_argument("--elenums", default="5,15,30",
                           help="comma-separated EleNum axis "
                                "(multiples of 5)")
    p_explore.add_argument("--variants", default="64x1,64x8,32x8",
                           help="comma-separated ELENxLMUL variants")
    p_explore.add_argument("--banks", default="1,2",
                           help="comma-separated vector register bank "
                                "counts")
    p_explore.add_argument("--issue-widths", default="1,2",
                           help="comma-separated scalar issue widths")
    p_explore.add_argument("--chaining", action="store_true",
                           help="also sweep chained configurations")
    p_explore.add_argument("--workers", type=int, default=1,
                           help="worker processes (1 = serial)")
    p_explore.add_argument("--transport", default="auto",
                           choices=("auto", "shm", "pickle"),
                           help="pool transport for parallel sweeps "
                                "(auto = shm)")
    p_explore.add_argument("--top", type=int, default=None,
                           help="print only the first N table rows")
    p_explore.add_argument("--out", default=None, metavar="FILE",
                           help="write the Pareto-front artifact JSON "
                                "here (schema-validated)")
    p_explore.add_argument("--check-pins", action="store_true",
                           help="exit 1 unless every default-timing row "
                                "reproduces the paper cycle pins exactly")

    p_hash = sub.add_parser("hash", help="hash with a SHA-3 function")
    p_hash.add_argument("algorithm",
                        choices=sorted(SHA3_VARIANTS) + sorted(SHAKE_VARIANTS))
    group = p_hash.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="file to hash")
    group.add_argument("--string", help="literal string to hash")
    p_hash.add_argument("--length", type=int, default=32,
                        help="XOF output bytes (SHAKE only)")
    p_hash.add_argument("--simulate", action="store_true",
                        help="execute every permutation on the simulator")
    p_hash.add_argument("--elen", type=int, default=64, choices=(32, 64))
    p_hash.add_argument("--lmul", type=int, default=8, choices=(1, 8))
    _add_engine_argument(p_hash)

    p_run = sub.add_parser("run", help="run a Keccak config on the simulator")
    p_run.add_argument("--elen", type=int, default=64, choices=(32, 64))
    p_run.add_argument("--lmul", type=int, default=8, choices=(1, 8))
    p_run.add_argument("--elenum", type=int, default=5)
    p_run.add_argument("--states", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=0)
    _add_engine_argument(p_run)

    p_batch = sub.add_parser(
        "batch", help="hash a generated batch across a worker pool")
    p_batch.add_argument("--count", type=int, default=60,
                         help="number of messages")
    p_batch.add_argument("--size", type=int, default=64,
                         help="bytes per message")
    p_batch.add_argument("--workers", type=int, default=1,
                         help="worker processes (1 = serial)")
    p_batch.add_argument("--chunk-size", type=int, default=None,
                         help="messages per pool chunk")
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.add_argument("--algorithm", default="sha3_256",
                         choices=("sha3_256", "shake128", "shake256",
                                  "k12", "parallelhash128",
                                  "parallelhash256"),
                         help="batch algorithm (tree algorithms hash "
                              "each message as its own leaf tree)")
    p_batch.add_argument("--length", type=int, default=32,
                         help="XOF output bytes (ignored by sha3_256)")
    p_batch.add_argument("--verify", action="store_true",
                         help="check every digest against hashlib (or "
                              "the pure-Python reference for the "
                              "algorithms hashlib lacks)")
    p_batch.add_argument("--timeout", type=float, default=None,
                         help="per-chunk timeout in seconds")
    p_batch.add_argument("--resume", metavar="MANIFEST", default=None,
                         help="checkpoint manifest path: created on first "
                              "run, completed chunks are skipped on rerun")
    _add_engine_argument(p_batch)
    p_batch.add_argument("--transport", choices=("auto", "shm", "pickle"),
                         default="auto",
                         help="batch payload transport: shm = zero-copy "
                              "shared-memory arena, pickle = queue "
                              "serialization (auto picks shm for large "
                              "multi-worker batches)")
    p_batch.add_argument("--quarantine-report", action="store_true",
                         help="run with the hardened retry policy and "
                              "print the quarantine/pool report")

    p_serve = sub.add_parser(
        "serve", help="run the traffic-hardened hashing daemon")
    p_serve.add_argument("--socket", default=None,
                         help="unix socket path to listen on")
    p_serve.add_argument("--host", default=None,
                         help="TCP address to listen on (with --port)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 = ephemeral)")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="pool workers (0 = inline execution)")
    p_serve.add_argument("--max-queue", type=int, default=256,
                         help="bounded accept queue; full = 429")
    p_serve.add_argument("--rate", type=float, default=0.0,
                         help="token-bucket admission rate in req/s "
                              "(0 = unlimited)")
    p_serve.add_argument("--burst", type=float, default=64.0,
                         help="token-bucket burst capacity")
    p_serve.add_argument("--batch-window", type=float, default=0.002,
                         help="coalescing window in seconds")
    p_serve.add_argument("--max-batch", type=int, default=64,
                         help="max requests per coalesced dispatch")
    p_serve.add_argument("--deadline-ms", type=float, default=5000.0,
                         help="default per-request deadline (clients "
                              "override with X-Deadline-Ms)")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         help="seconds to flush in-flight work on "
                              "SIGTERM")
    p_serve.add_argument("--state", default=None,
                         help="write a drain checkpoint JSON here on "
                              "graceful shutdown")
    p_serve.add_argument("--transport", default="auto",
                         choices=("auto", "shm", "pickle"),
                         help="pool byte transport (as in batch)")
    _add_engine_argument(p_serve)

    p_load = sub.add_parser(
        "loadgen", help="open-loop load generator against a daemon")
    p_load.add_argument("--socket", default=None,
                        help="daemon unix socket path")
    p_load.add_argument("--host", default=None, help="daemon TCP host")
    p_load.add_argument("--port", type=int, default=0,
                        help="daemon TCP port")
    p_load.add_argument("--requests", type=int, default=100)
    p_load.add_argument("--rate", type=float, default=0.0,
                        help="open-loop arrival rate in req/s "
                             "(0 = max client concurrency)")
    p_load.add_argument("--size", type=int, default=64,
                        help="bytes per message")
    p_load.add_argument("--algorithm", default="sha3_256",
                        choices=("sha3_256", "shake128", "shake256",
                                 "k12", "parallelhash128",
                                 "parallelhash256"))
    p_load.add_argument("--length", type=int, default=32,
                        help="XOF output bytes (any non-sha3_256 "
                             "algorithm)")
    p_load.add_argument("--deadline-ms", type=float, default=None,
                        help="send X-Deadline-Ms with every request")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--verify", action="store_true",
                        help="check every 200 body against hashlib")
    p_load.add_argument("--min-ok", type=int, default=0,
                        help="exit 1 unless at least this many requests "
                             "succeeded")

    p_campaign = sub.add_parser(
        "faultcampaign",
        help="seeded fault-injection campaign over the execution engines")
    p_campaign.add_argument("--faults", type=int, default=200,
                            help="number of faults to inject")
    p_campaign.add_argument("--seed", type=int, default=0)
    p_campaign.add_argument("--variants", default=None,
                            help="comma-separated variant list "
                                 "(default: all)")
    p_campaign.add_argument("--modes", default=None,
                            help="comma-separated engine modes "
                                 "(stepped,predecoded,fused)")
    p_campaign.add_argument("--no-crosscheck", action="store_true",
                            help="skip replaying faults on the reference "
                                 "engine")

    p_stats = sub.add_parser(
        "stats", help="benchmark trajectory: print/validate/diff the "
                      "committed baseline")
    p_stats.add_argument("--baseline", default=None,
                         help="baseline directory (default: "
                              "benchmarks/baseline)")
    p_stats.add_argument("--bench-dir", default=None,
                         help="fresh --bench-json output directory to "
                              "diff against the baseline")
    p_stats.add_argument("--check-baseline", action="store_true",
                         help="validate the committed baseline (schema + "
                              "paper pin benchmarks); exit 1 on problems")
    p_stats.add_argument("--update-baseline", action="store_true",
                         help="rewrite the baseline from --bench-dir")
    p_stats.add_argument("--threshold", type=float, default=0.15,
                         help="normalized wall-clock regression threshold "
                              "(default 0.15)")

    p_profile = sub.add_parser(
        "profile", help="run a workload with metrics armed; print the "
                        "registry snapshot")
    p_profile.add_argument("--elen", type=int, default=64,
                           choices=(32, 64))
    p_profile.add_argument("--lmul", type=int, default=8, choices=(1, 8))
    p_profile.add_argument("--elenum", type=int, default=5)
    p_profile.add_argument("--states", type=int, default=1)
    p_profile.add_argument("--repeat", type=int, default=10,
                           help="session runs to profile")
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument("--workers", type=int, default=0,
                           help="profile a run_many batch across this "
                                "many workers instead of session runs")
    p_profile.add_argument("--count", type=int, default=60,
                           help="batch messages (with --workers)")
    p_profile.add_argument("--size", type=int, default=64,
                           help="bytes per batch message (with --workers)")
    p_profile.add_argument("--timeline", metavar="FILE", default=None,
                           help="export a Chrome trace_event JSON here")
    _add_engine_argument(p_profile)

    p_mix = sub.add_parser("mix", help="per-step-mapping cycle breakdown")
    p_mix.add_argument("--variant", choices=(
        "64-lmul1", "64-lmul41", "64-lmul8", "64-fused", "32-lmul8"))

    p_doc = sub.add_parser("isa-doc", help="render the ISA reference")
    p_doc.add_argument("--output", help="write Markdown here (else stdout)")

    p_asm = sub.add_parser("asm", help="assemble a source file")
    p_asm.add_argument("source")
    p_asm.add_argument("--base", type=lambda s: int(s, 0), default=0)
    p_asm.add_argument("--listing", action="store_true")

    p_dis = sub.add_parser("dis", help="disassemble hex words (file or -)")
    p_dis.add_argument("source")
    p_dis.add_argument("--base", type=lambda s: int(s, 0), default=0)

    return parser


_HANDLERS = {
    "tables": _cmd_tables,
    "sweep": _cmd_sweep,
    "explore": _cmd_explore,
    "hash": _cmd_hash,
    "run": _cmd_run,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "faultcampaign": _cmd_faultcampaign,
    "stats": _cmd_stats,
    "profile": _cmd_profile,
    "mix": _cmd_mix,
    "isa-doc": _cmd_isa_doc,
    "asm": _cmd_asm,
    "dis": _cmd_dis,
}


#: The parser of :func:`main`, built on first use and kept for the
#: process, with the engine names its ``--engine`` choices were built
#: from: an engine registered later rebuilds it.
_PARSER: Optional[Tuple[Tuple[str, ...], argparse.ArgumentParser]] = None


def _parser() -> argparse.ArgumentParser:
    global _PARSER
    from .sim import engines

    names = engines.names()
    if _PARSER is None or _PARSER[0] != names:
        _PARSER = (names, build_parser())
    return _PARSER[1]


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (OSError, ValueError, LookupError) as exc:
        # Bad input (unreadable file, malformed hex, invalid parameter):
        # one-line diagnostic, exit 2 — same contract as argparse errors.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, SimulationError) as exc:
        # Simulation or worker-pool failure on valid input.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
