"""Regression: per-run ``engine=`` overrides never leak.

``Session.run(engine=...)`` borrows the session's cached processor for
one run.  The processor must come back on the session's default engine —
including when the run raises — and the batch drivers' per-process
permutation cache must key on the engine so a pool job requesting
``stepped`` can never hand a later ``auto`` job a stepped permutation.
"""

import pytest

from repro.keccak import keccak_f1600
from repro.observability import metrics
from repro.programs import Session, build_program
from repro.programs import batch_driver, session as session_module


@pytest.fixture(autouse=True)
def _clean_registry():
    metrics.disarm()
    metrics.registry().reset()
    yield
    metrics.disarm()
    metrics.registry().reset()


class TestSessionOverride:
    def test_override_does_not_leak_into_later_runs(self, random_state):
        session = Session()  # default engine: auto
        program = build_program(64, 8, 5)
        proc = session.processor(64, 5)

        session.run(program, [random_state], engine="stepped")
        assert proc.engine == session.engine == "auto"

        # The next default run actually executes on a fast engine, not
        # the leaked stepped one: the armed engine counter is the
        # ground truth for what ran.
        metrics.arm()
        try:
            result = session.run(program, [random_state])
        finally:
            metrics.disarm()
        assert result.states == [keccak_f1600(random_state)]
        runs = metrics.registry().get("sim_runs_total")
        assert runs.value(engine="stepped") == 0

    def test_override_respected_for_its_own_run(self, random_state):
        session = Session(engine="fused")
        program = build_program(64, 8, 5)
        metrics.arm()
        try:
            result = session.run(program, [random_state],
                                 engine="stepped")
        finally:
            metrics.disarm()
        assert result.states == [keccak_f1600(random_state)]
        runs = metrics.registry().get("sim_runs_total")
        assert runs.value(engine="stepped") == 1

    def test_engine_restored_when_run_raises(self, monkeypatch):
        session = Session(engine="fused")
        program = build_program(64, 8, 5)
        proc = session.processor(64, 5)

        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(session_module, "_execute", boom)
        with pytest.raises(RuntimeError):
            session.run(program, [], engine="stepped")
        assert proc.engine == "fused"

    def test_invalid_override_rejected_before_any_state_change(self):
        session = Session()
        program = build_program(64, 8, 5)
        with pytest.raises(ValueError):
            session.run(program, [], engine="warp")
        assert session.processor(64, 5).engine == "auto"


class TestBatchDriverCache:
    def test_permutation_cache_keys_on_engine(self):
        arch = (64, 8, 5)
        auto = batch_driver._cached_permutation(arch, "auto")
        stepped = batch_driver._cached_permutation(arch, "stepped")
        assert auto is not stepped
        assert auto.engine == "auto" and stepped.engine == "stepped"
        assert auto._session.engine == "auto"
        assert stepped._session.engine == "stepped"
        # Asking again returns the same warm object per key.
        assert batch_driver._cached_permutation(arch, "auto") is auto

    def test_warm_parent_only_precompiles_compilable_engines(self,
                                                             monkeypatch):
        calls = []

        class _Spy:
            def __init__(self, engine):
                self.engine = engine

            def precompile(self):
                calls.append(self.engine)

        spies = {}

        def fake_cached(arch, engine="auto", num_rounds=24):
            return spies.setdefault((arch, engine, num_rounds),
                                    _Spy(engine))

        monkeypatch.setattr(batch_driver, "_cached_permutation",
                            fake_cached)
        arch = (64, 8, 30)
        batch_driver._warm_parent(arch, "stepped", workers=2)
        batch_driver._warm_parent(arch, "auto", workers=2)
        batch_driver._warm_parent(arch, "auto", workers=1)  # serial: skip
        assert calls == ["stepped", "auto"]
        # precompile() itself refuses non-compiled engines…
        assert batch_driver.BatchPermutation(
            64, 8, 5, engine="stepped").precompile() is False

    def test_chunk_payloads_carry_the_engine(self, monkeypatch):
        import hashlib

        from repro.parallel_exec import register_task_kind

        payloads = []

        def spy(payload):
            payloads.append(payload)
            return batch_driver._hash_chunk(payload)

        register_task_kind("test.engine_payload_spy", spy)
        monkeypatch.setattr(batch_driver, "_HASH_TASK_KIND",
                            "test.engine_payload_spy")
        digests = batch_driver.run_many(
            [b"x"] * 4, elen=64, lmul=8, elenum=5, chunk_size=2,
            engine="predecoded", transport="pickle")
        assert sum(len(payload[3]) for payload in payloads) == 4
        assert all(payload[4] == "predecoded" for payload in payloads)
        assert digests == [hashlib.sha3_256(b"x").digest()] * 4
