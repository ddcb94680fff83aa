"""The execution-engine registry: capability negotiation for ``engine=``.

The ``engine="auto|stepped|predecoded|fused|compiled|soa"`` axis used to
be an if/else chain inside :meth:`SIMDProcessor._run`; every new backend
(the SoA batch kernels, a service-side batcher, alternative timing
models) needed another special case in the processor core.  This module
replaces that chain with a registry: each backend registers an
:class:`EngineSpec` declaring *capabilities* —

* can it reproduce per-instruction **tracing**?
* does it honour **instrumentation** (armed fault injectors, the stepped
  path's ``fault_hook``)?
* can it stop at an exact **max_cycles** boundary?
* does it do multi-message **batching** (the SoA path)?
* does it **own the paper's cycle pins** (i.e. is it cycle-accurate)?
* is it **functional** — digests only, no per-instruction simulation?

— and ``auto`` selection, the compiled→fused→predecoded→stepped fallback
cascade, and the observability labels all derive from those declarations
instead of hard-coded names.  A third-party backend registered here runs
through :meth:`SIMDProcessor.run` without a single edit to
``processor.py``.

Capability table of the built-in engines:

=========== ======= =============== ========== ======== ========= ==========
engine      tracing instrumentation max_cycles batching owns pins functional
=========== ======= =============== ========== ======== ========= ==========
stepped     yes     yes             yes        no       yes       no
predecoded  yes     yes             yes        no       yes       no
fused       yes     yes             no         no       yes       no
compiled    no      no              no         no       yes       no
soa         no      no              no         yes      no        yes
=========== ======= =============== ========== ======== ========= ==========

Two kinds of backend coexist:

* **processor engines** provide a ``runner`` and execute a loaded
  program on a :class:`~repro.sim.processor.SIMDProcessor`.  A runner
  may *decline at run time* by returning None (the compiled kernel's
  eligibility checks), in which case execution cascades down the
  pre-computed :func:`plan`.
* **functional engines** provide ``run_states`` instead: they transform
  Keccak states directly (the SoA mega-batch kernels), never touching a
  processor.  :class:`~repro.programs.session.Session` dispatches to
  them; at the processor level they simply cascade to their declared
  ``fallback``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..observability import metrics as _metrics

__all__ = [
    "EngineCaps",
    "EngineSpec",
    "PlanStep",
    "RunContext",
    "get",
    "maybe_get",
    "names",
    "note_functional_fallback",
    "plan",
    "register",
    "unregister",
    "validate",
]

#: The pseudo-engine resolved per run against declared capabilities.
AUTO = "auto"

# Functional engines falling back to a processor engine (e.g. a traced
# run requested on the SoA backend) are metered here, mirroring the
# compiled engine's ``sim_compiled_fallbacks_total``.
_FUNCTIONAL_FALLBACKS = _metrics.registry().counter(
    "sim_functional_fallbacks_total",
    "Runs a functional engine declined, by engine and reason",
    ("engine", "reason"))


@dataclass(frozen=True)
class EngineCaps:
    """What a backend can reproduce exactly (see the module table)."""

    #: Per-instruction trace records (``trace=True`` runs).
    tracing: bool = True
    #: Armed fault injectors / wrapped entries / ``fault_hook``.
    instrumentation: bool = True
    #: Exact ``max_cycles`` execution limits.
    max_cycles: bool = True
    #: Processes many messages per call (SoA batch kernels).
    batching: bool = False
    #: Cycle-accurate: the paper's Table 7/8 pins are measured here.
    owns_pins: bool = False
    #: Digests only — no cycle model, no architectural simulation.
    functional: bool = False


@dataclass(frozen=True)
class EngineSpec:
    """One registered backend: capabilities plus its entry points."""

    name: str
    caps: EngineCaps
    #: Processor-level entry point:
    #: ``runner(proc, pre, max_instructions, max_cycles)`` returning the
    #: run's ExecutionStats, or None to decline (cascade to the next
    #: plan step).  None for purely functional engines.
    runner: Optional[Callable] = None
    #: Functional entry point: ``run_states(program, states)`` returning
    #: the transformed states (functional engines only).
    run_states: Optional[Callable] = None
    #: Whole-message fast path for digest-only batch traffic:
    #: ``digest_batch(algorithm, length, messages) -> [digest, ...]``.
    #: Engines that can produce final digests without simulating sponge
    #: rounds (the hashlib-backed ``reference`` engine) declare it; the
    #: batch drivers use it to skip per-permutation dispatch entirely.
    digest_batch: Optional[Callable] = None
    #: For batching engines: ``batch_width()`` — how many messages one
    #: kernel call carries (the :class:`BatchPermutation` lane budget).
    batch_width: Optional[Callable[[], int]] = None
    #: Pre-compile hook: ``warm(program) -> bool`` (pool parents call
    #: this before forking so workers warm-start from the disk cache).
    warm: Optional[Callable] = None
    #: Engine to cascade to when this one is ineligible or declines.
    fallback: Optional[str] = None
    #: ``auto`` picks the highest-priority eligible processor engine.
    priority: int = 0
    #: Structural requirements (checked silently, like the old chain).
    requires_predecode: bool = False
    requires_fuse: bool = False
    #: Meter capability-based skips to the engine's fallback counter
    #: (the compiled engine's ``sim_compiled_fallbacks_total`` story).
    meter_fallbacks: bool = False
    description: str = ""


@dataclass(frozen=True)
class RunContext:
    """What one :meth:`SIMDProcessor.run` call needs reproduced."""

    traced: bool = False
    has_fault_hook: bool = False
    instrumented: bool = False
    wants_max_cycles: bool = False
    has_predecode: bool = False
    fuse_enabled: bool = False


@dataclass(frozen=True)
class PlanStep:
    """One engine in a run's cascade: runnable, or skipped for a reason."""

    spec: EngineSpec
    #: None — try the runner.  Otherwise the capability the engine lacks
    #: (``traced``/``fault_hook``/``instrumented``/``max_cycles``); the
    #: processor meters it (when the spec asks) and moves on.
    blocked: Optional[str] = None


_REGISTRY: Dict[str, EngineSpec] = {}

#: ``auto``'s processor engines by descending priority; rebuilt on the
#: first plan after the registry changes.
_AUTO_CHAIN: Optional[Tuple[EngineSpec, ...]] = None


def register(spec: EngineSpec, replace: bool = False) -> EngineSpec:
    """Add a backend; ``replace=True`` swaps an existing registration."""
    global _AUTO_CHAIN
    if spec.name == AUTO:
        raise ValueError("'auto' is the selection policy, not an engine")
    if spec.runner is None and spec.run_states is None:
        raise ValueError(
            f"engine {spec.name!r} must provide a runner or run_states")
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"engine already registered: {spec.name!r}")
    _REGISTRY[spec.name] = spec
    _AUTO_CHAIN = None
    return spec


def unregister(name: str) -> None:
    """Remove a backend (tests registering throwaway engines)."""
    global _AUTO_CHAIN
    _REGISTRY.pop(name, None)
    _AUTO_CHAIN = None


def names() -> Tuple[str, ...]:
    """Every selectable engine name, ``auto`` first."""
    return (AUTO,) + tuple(_REGISTRY)


def validate(engine: str) -> str:
    """Check an engine name against the registry; returns it for chaining."""
    if engine != AUTO and engine not in _REGISTRY:
        raise ValueError(
            f"unknown engine {engine!r}: expected one of {names()}"
        )
    return engine


def get(name: str) -> EngineSpec:
    """The spec registered under ``name`` (KeyError -> ValueError)."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            f"unknown engine {name!r}: expected one of {names()}"
        )
    return spec


def maybe_get(name: str) -> Optional[EngineSpec]:
    """Like :func:`get`, but ``auto`` (no fixed spec) returns None."""
    return None if name == AUTO else get(name)


def _blocked_reason(spec: EngineSpec, ctx: RunContext) -> Optional[str]:
    caps = spec.caps
    if ctx.traced and not caps.tracing:
        return "traced"
    if ctx.has_fault_hook and not caps.instrumentation:
        return "fault_hook"
    if ctx.instrumented and not caps.instrumentation:
        return "instrumented"
    if ctx.wants_max_cycles and not caps.max_cycles:
        return "max_cycles"
    return None


def _structurally_available(spec: EngineSpec, ctx: RunContext) -> bool:
    if spec.runner is None:
        return False  # functional engines never run on the processor
    if spec.requires_predecode and not ctx.has_predecode:
        return False
    if spec.requires_fuse and not ctx.fuse_enabled:
        return False
    return True


def plan(engine: str, ctx: RunContext) -> List[PlanStep]:
    """The ordered cascade of engines for one run.

    ``auto`` considers every processor engine by descending priority;
    an explicit name starts from that engine and follows its declared
    ``fallback`` links.  Structurally unavailable engines (no predecoded
    program, fusion disabled, functional-only) are dropped silently —
    exactly like the old if/else chain; capability mismatches become
    blocked steps so the processor can meter the fallback reason.
    """
    global _AUTO_CHAIN
    chain: Sequence[EngineSpec]
    if engine == AUTO:
        if _AUTO_CHAIN is None:
            _AUTO_CHAIN = tuple(sorted(
                (s for s in _REGISTRY.values() if s.runner is not None),
                key=lambda s: -s.priority))
        chain = _AUTO_CHAIN
    else:
        links: List[EngineSpec] = []
        seen = set()
        cursor: Optional[str] = engine
        while cursor is not None and cursor not in seen:
            seen.add(cursor)
            spec = get(cursor)
            links.append(spec)
            cursor = spec.fallback
        chain = links
    steps: List[PlanStep] = []
    for spec in chain:
        if not _structurally_available(spec, ctx):
            continue
        steps.append(PlanStep(spec, _blocked_reason(spec, ctx)))
    return steps


def note_functional_fallback(spec: EngineSpec, reason: str) -> None:
    """Meter a functional engine handing a run to its fallback."""
    if _metrics.ARMED:
        _FUNCTIONAL_FALLBACKS.inc(engine=spec.name, reason=reason)


# -- built-in processor engines -------------------------------------------------
#
# The runner bodies live on SIMDProcessor (they are the hot loops); the
# specs here only declare capabilities and wire the cascade.  Priorities
# order the ``auto`` preference: compiled > fused > predecoded > stepped.


def _run_stepped(proc, pre, max_instructions, max_cycles):
    return proc._run_stepped(max_instructions, max_cycles)


def _run_predecoded(proc, pre, max_instructions, max_cycles):
    return proc._run_predecoded(pre, max_instructions, max_cycles)


def _run_fused(proc, pre, max_instructions, max_cycles):
    return proc._run_fused(pre, max_instructions, max_cycles)


def _run_compiled(proc, pre, max_instructions, max_cycles):
    return proc._run_compiled(pre, max_instructions)


register(EngineSpec(
    name="stepped",
    caps=EngineCaps(owns_pins=True),
    runner=_run_stepped,
    priority=10,
    description="per-instruction fetch/decode/execute (reference)",
))
register(EngineSpec(
    name="predecoded",
    caps=EngineCaps(owns_pins=True),
    runner=_run_predecoded,
    fallback="stepped",
    priority=20,
    requires_predecode=True,
    description="decode-once executor closures, per-instruction dispatch",
))
register(EngineSpec(
    name="fused",
    caps=EngineCaps(max_cycles=False, owns_pins=True),
    runner=_run_fused,
    fallback="predecoded",
    priority=30,
    requires_predecode=True,
    requires_fuse=True,
    description="superblock-fused straight-line dispatch",
))
register(EngineSpec(
    name="compiled",
    caps=EngineCaps(tracing=False, instrumentation=False,
                    max_cycles=False, owns_pins=True),
    runner=_run_compiled,
    fallback="fused",
    priority=40,
    requires_predecode=True,
    meter_fallbacks=True,
    description="AOT flat kernel per program x geometry",
))


# -- the SoA mega-batch engine ---------------------------------------------------
#
# A *functional* fast path: N messages per generated-function call with
# the 25-lane Keccak state packed across giant-int columns (see
# repro.sim.codegen's SoA compiler).  It owns no cycle model — the paper
# pins stay on the processor engines above — so at the processor level
# it simply cascades to the compiled engine.


def _soa_run_states(program, states):
    from . import codegen

    return codegen.run_soa(states, num_rounds=program.num_rounds)


def _soa_batch_width() -> int:
    from . import codegen

    return codegen.soa_width()


def _soa_warm(program) -> bool:
    from . import codegen

    return codegen.warm_soa(codegen.soa_width(),
                            num_rounds=program.num_rounds) is not None


register(EngineSpec(
    name="soa",
    caps=EngineCaps(tracing=False, instrumentation=False, max_cycles=False,
                    batching=True, functional=True),
    run_states=_soa_run_states,
    batch_width=_soa_batch_width,
    warm=_soa_warm,
    fallback="compiled",
    priority=0,
    description="structure-of-arrays mega-batch kernels (digests only)",
))


# -- the reference digest engine ---------------------------------------------------
#
# The serving story (ROADMAP item 1) needs a backend that produces
# *correct digests at native speed* for traffic that does not ask for
# cycle metrics — and the transport/scheduler benchmarks need a
# compute-light leg so they measure byte movement, not simulation.  This
# engine is that backend: ``run_states`` applies the pure-Python
# round-function reference (so Session-level program runs stay exact),
# and ``digest_batch`` hands whole messages to hashlib.  It owns no
# cycle model; traced runs cascade to the compiled engine like ``soa``.


def _reference_run_states(program, states):
    from ..keccak.permutation import keccak_p1600

    return [keccak_p1600(state, program.num_rounds) for state in states]


def _reference_digest_batch(algorithm, length, messages):
    import hashlib

    if algorithm == "sha3_256":
        return [hashlib.sha3_256(m).digest() for m in messages]
    if algorithm == "shake128":
        return [hashlib.shake_128(m).digest(length) for m in messages]
    if algorithm == "shake256":
        return [hashlib.shake_256(m).digest(length) for m in messages]
    if algorithm == "k12_leaf":
        # hashlib has no TurboSHAKE: the pure-Python 12-round sponge
        # with the K12 leaf domain byte is the ground truth here.
        from ..keccak.kangarootwelve import turboshake128

        return [turboshake128(bytes(m), 32, domain=0x0B)
                for m in messages]
    raise ValueError(f"unsupported algorithm: {algorithm!r}")


register(EngineSpec(
    name="reference",
    caps=EngineCaps(tracing=False, instrumentation=False, max_cycles=False,
                    functional=True),
    run_states=_reference_run_states,
    digest_batch=_reference_digest_batch,
    fallback="compiled",
    priority=0,
    description="hashlib/round-function digests, no cycle model",
))
