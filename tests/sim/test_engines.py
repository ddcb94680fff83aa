"""The engine registry: capability negotiation, fallback, extension.

The acceptance bar for the registry (ROADMAP item 5): adding a backend
must require *zero edits* to ``sim/processor.py`` — registration alone
makes it selectable, plannable, metered and visible in ``ENGINES``.  The
``auto`` policy and the fallback cascade must derive from the declared
capabilities, not from hard-coded engine names.
"""

import pytest

import repro.sim as sim
from repro.keccak import keccak_f1600
from repro.observability import metrics
from repro.programs import build_program
from repro.programs.session import Session
from repro.sim import engines
from repro.sim import processor as processor_module
from repro.sim.processor import SIMDProcessor, validate_engine


@pytest.fixture(autouse=True)
def clean_metrics():
    metrics.disarm()
    metrics.registry().reset()
    yield
    metrics.disarm()
    metrics.registry().reset()


@pytest.fixture
def armed():
    metrics.arm()
    yield metrics.registry()
    metrics.disarm()


def _spec(name, **overrides):
    """A minimal processor-engine spec delegating to the predecoded loop."""
    defaults = dict(
        name=name,
        caps=engines.EngineCaps(),
        runner=lambda proc, pre, mi, mc: proc._run_predecoded(pre, mi, mc),
        requires_predecode=True,
        priority=5,
    )
    defaults.update(overrides)
    return engines.EngineSpec(**defaults)


class TestRegistry:
    def test_builtin_names_and_shims(self):
        assert engines.names() == (
            "auto", "stepped", "predecoded", "fused", "compiled", "soa",
            "reference")
        assert processor_module.ENGINES == engines.names()
        assert sim.ENGINES == engines.names()
        assert validate_engine("soa") == "soa"
        with pytest.raises(ValueError) as excinfo:
            validate_engine("warp")
        assert "soa" in str(excinfo.value)  # error lists live names

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            engines.register(_spec("compiled"))

    def test_spec_needs_an_entry_point(self):
        with pytest.raises(ValueError):
            engines.register(engines.EngineSpec(
                name="inert", caps=engines.EngineCaps()))
        with pytest.raises(ValueError):
            engines.register(_spec("auto"))

    def test_capability_table_of_builtins(self):
        compiled = engines.get("compiled")
        assert not compiled.caps.tracing
        assert not compiled.caps.instrumentation
        assert not compiled.caps.max_cycles
        assert compiled.caps.owns_pins
        soa = engines.get("soa")
        assert soa.caps.functional and soa.caps.batching
        assert not soa.caps.owns_pins
        reference = engines.get("reference")
        assert reference.caps.functional
        assert reference.digest_batch is not None
        assert not reference.caps.owns_pins
        for name in ("stepped", "predecoded", "fused"):
            assert engines.get(name).caps.owns_pins
            assert engines.get(name).caps.tracing


class TestPlanning:
    def test_auto_prefers_compiled_when_unconstrained(self):
        ctx = engines.RunContext(has_predecode=True, fuse_enabled=True)
        steps = engines.plan("auto", ctx)
        assert [s.spec.name for s in steps] == [
            "compiled", "fused", "predecoded", "stepped"]
        assert all(s.blocked is None for s in steps)

    def test_tracing_blocks_compiled_with_a_reason(self):
        ctx = engines.RunContext(traced=True, has_predecode=True,
                                 fuse_enabled=True)
        steps = engines.plan("auto", ctx)
        blocked = {s.spec.name: s.blocked for s in steps}
        assert blocked["compiled"] == "traced"
        assert blocked["fused"] is None

    def test_max_cycles_blocks_fused_and_compiled(self):
        ctx = engines.RunContext(wants_max_cycles=True,
                                 has_predecode=True, fuse_enabled=True)
        blocked = {s.spec.name: s.blocked
                   for s in engines.plan("auto", ctx)}
        assert blocked["compiled"] == "max_cycles"
        assert blocked["fused"] == "max_cycles"
        assert blocked["predecoded"] is None

    def test_structural_gaps_drop_silently(self):
        # No predecoded program: only the stepped engine is available.
        ctx = engines.RunContext()
        assert [s.spec.name for s in engines.plan("auto", ctx)] \
            == ["stepped"]
        # Fusion off: the fused engine vanishes from the cascade.
        ctx = engines.RunContext(has_predecode=True, fuse_enabled=False)
        assert [s.spec.name for s in engines.plan("compiled", ctx)] \
            == ["compiled", "predecoded", "stepped"]

    def test_explicit_engine_follows_fallback_chain(self):
        ctx = engines.RunContext(has_predecode=True, fuse_enabled=True)
        assert [s.spec.name for s in engines.plan("soa", ctx)] == [
            "compiled", "fused", "predecoded", "stepped"]  # soa: functional

    def test_fault_hook_and_instrumentation_reasons(self):
        ctx = engines.RunContext(has_fault_hook=True, has_predecode=True,
                                 fuse_enabled=True)
        blocked = {s.spec.name: s.blocked
                   for s in engines.plan("compiled", ctx)}
        assert blocked["compiled"] == "fault_hook"
        ctx = engines.RunContext(instrumented=True, has_predecode=True,
                                 fuse_enabled=True)
        blocked = {s.spec.name: s.blocked
                   for s in engines.plan("compiled", ctx)}
        assert blocked["compiled"] == "instrumented"


class TestRunMetering:
    def test_runs_counted_by_resolved_name_after_success(self, armed,
                                                         random_state):
        # auto resolves to compiled here; the counter must carry the
        # *resolved* name, and only after the kernel actually ran.
        program = build_program(64, 8, 30)
        Session().run(program, [random_state])
        runs = armed.get("sim_runs_total")
        assert runs.value(engine="compiled") == 1
        assert runs.value(engine="auto") == 0

    def test_declined_engine_is_never_counted_as_run(self, armed,
                                                     random_state):
        # Tracing pushes a compiled request onto fused: exactly one run,
        # labeled fused, plus one metered fallback reason.
        program = build_program(64, 8, 5)
        Session(engine="compiled").run(program, [random_state],
                                       trace=True)
        runs = armed.get("sim_runs_total")
        assert runs.value(engine="compiled") == 0
        assert runs.value(engine="fused") == 1
        fallbacks = armed.get("sim_compiled_fallbacks_total")
        assert fallbacks.value(reason="traced") == 1

    def test_max_cycles_lands_on_predecoded(self, armed, random_state):
        program = build_program(64, 8, 5)
        session = Session()
        proc = session.processor(64, 5)
        session.run(program, [random_state])  # prime the predecode cache
        proc.reset()
        proc.load_program(program.assemble())
        proc.run(max_cycles=10_000_000)
        runs = armed.get("sim_runs_total")
        assert runs.value(engine="predecoded") == 1


class TestThirdPartyBackends:
    """Registering a new engine must not touch sim/processor.py."""

    def test_processor_backend_registers_and_runs(self, armed,
                                                  random_state):
        engines.register(_spec("thirdparty"))
        try:
            # The module-level ENGINES views are live: the new backend
            # appears without re-importing anything.
            assert "thirdparty" in processor_module.ENGINES
            assert "thirdparty" in sim.ENGINES
            program = build_program(64, 8, 5)
            result = Session(engine="thirdparty").run(program,
                                                      [random_state])
            assert result.states == [keccak_f1600(random_state)]
            runs = armed.get("sim_runs_total")
            assert runs.value(engine="thirdparty") == 1
        finally:
            engines.unregister("thirdparty")
        assert "thirdparty" not in processor_module.ENGINES
        with pytest.raises(ValueError):
            Session(engine="thirdparty")

    def test_processor_accepts_registered_engine_at_construction(self):
        engines.register(_spec("thirdparty"))
        try:
            proc = SIMDProcessor(engine="thirdparty")
            assert proc.engine == "thirdparty"
        finally:
            engines.unregister("thirdparty")

    def test_runtime_decline_cascades_to_fallback(self, armed,
                                                  random_state):
        # A runner returning None (declining at run time) hands the run
        # to its declared fallback, like the compiled engine's bailouts.
        engines.register(_spec(
            "flaky",
            runner=lambda proc, pre, mi, mc: None,
            fallback="predecoded",
        ))
        try:
            program = build_program(64, 8, 5)
            result = Session(engine="flaky").run(program, [random_state])
            assert result.states == [keccak_f1600(random_state)]
            runs = armed.get("sim_runs_total")
            assert runs.value(engine="flaky") == 0
            assert runs.value(engine="predecoded") == 1
        finally:
            engines.unregister("flaky")

    def test_auto_plan_sees_registry_changes_between_runs(self, armed,
                                                          random_state):
        # ``auto`` keeps its priority order between runs; registering or
        # unregistering an engine must reach the very next run's plan.
        program = build_program(64, 8, 5)
        session = Session()
        expected = [keccak_f1600(random_state)]
        assert session.run(program, [random_state]).states == expected
        engines.register(_spec("eager", priority=100))
        try:
            ctx = engines.RunContext(has_predecode=True, fuse_enabled=True)
            assert engines.plan("auto", ctx)[0].spec.name == "eager"
            assert session.run(program, [random_state]).states == expected
            runs = armed.get("sim_runs_total")
            assert runs.value(engine="eager") == 1
            engines.register(_spec("eager", priority=1), replace=True)
            assert session.run(program, [random_state]).states == expected
            assert runs.value(engine="eager") == 1
        finally:
            engines.unregister("eager")
        assert "eager" not in [
            step.spec.name for step in engines.plan("auto", ctx)]
        assert session.run(program, [random_state]).states == expected
        assert armed.get("sim_runs_total").value(engine="compiled") == 3

    def test_functional_backend_bypasses_the_processor(self,
                                                       random_states):
        # A functional engine transforms states directly; Session must
        # return its output verbatim without running any program.
        engines.register(engines.EngineSpec(
            name="identity",
            caps=engines.EngineCaps(tracing=False, instrumentation=False,
                                    max_cycles=False, functional=True),
            run_states=lambda program, states: list(states),
            fallback="auto",
        ))
        try:
            program = build_program(64, 8, 5)
            states = random_states(2)
            result = Session(engine="identity").run(program, states)
            assert result.states == states  # unpermuted: never executed
            assert result.permutation_cycles == 0
        finally:
            engines.unregister("identity")
