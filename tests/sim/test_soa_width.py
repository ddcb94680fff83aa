"""The resident SoA sponge's width rule, and the widths a pool parent warms.

``codegen.soa_sponge_plan`` picks each ``sponge_soa`` call's kernel
width: the narrowest ladder width whose longest-first schedule makes no
more kernel calls than the widest allowed kernel
(``min(soa_width(), soa_bucket(n))``).  Its call count is a model of the
sponge, so it must equal the calls the sponge meters, exactly, and the
sponge must still give the bytes of hashlib (or of the pure-Python
TurboSHAKE for ``k12_leaf``).  A pooled ``run_many`` parent warms the
widths its planned spans pick, so its workers compile nothing.
"""

import dataclasses
import functools
import hashlib
import json
import os
import random

import pytest

from repro.keccak.kangarootwelve import turboshake128
from repro.observability import metrics
from repro.parallel_exec import scheduler
from repro.parallel_exec.pool import shutdown_shared_pool
from repro.programs import batch_driver, run_many, run_many_report
from repro.sim import codegen

SEED = 0x51D7

#: (rate bytes, domain suffix, rounds) of every flat sponge algorithm.
SHAPES = {
    "sha3_256": (136, 0x06, 24),
    "shake128": (168, 0x1F, 24),
    "shake256": (136, 0x1F, 24),
    "k12_leaf": (168, 0x0B, 12),
}
#: Output lengths per algorithm: fixed digests, or XOF outputs of zero,
#: less than, exactly and more than one rate.
OUT_LENS = {
    "sha3_256": (32,),
    "shake128": (0, 100, 168, 400),
    "shake256": (0, 64, 136, 300),
    "k12_leaf": (32,),
}
COUNTS = (5, 17, 60, 130)


@functools.lru_cache(maxsize=None)
def ragged(count, salt=0):
    """``count`` seeded messages of 0-4 KiB."""
    rng = random.Random(f"{SEED}-{count}-{salt}")
    return tuple(rng.randbytes(rng.randrange(4097)) for _ in range(count))


def batch_mix(seed):
    """A ``batch``-workload-style mix: 240 skewed sizes, 0 B to 4 KiB."""
    rng = random.Random(f"{SEED}-mix-{seed}")
    sizes = [round(4096 * (i / 239) ** 2) for i in range(240)]
    rng.shuffle(sizes)
    return [rng.randbytes(size) for size in sizes]


@functools.lru_cache(maxsize=None)
def reference(algorithm, out_len, messages):
    if algorithm == "sha3_256":
        return [hashlib.sha3_256(m).digest() for m in messages]
    if algorithm == "shake128":
        return [hashlib.shake_128(m).digest(out_len) for m in messages]
    if algorithm == "shake256":
        return [hashlib.shake_256(m).digest(out_len) for m in messages]
    return [turboshake128(m, out_len, domain=0x0B) for m in messages]


def widest(count):
    """The width every call ran at before the ladder: the cap, or the
    batch's power-of-two bucket if smaller."""
    return min(codegen.soa_width(), codegen.soa_bucket(count))


def metered_sponge(messages, algorithm, out_len):
    """Run the sponge; (digests, kernel calls, lane slots) it metered."""
    rate, suffix, rounds = SHAPES[algorithm]
    before = dict(codegen.SOA_STATS)
    digests = codegen.sponge_soa(list(messages), rate, suffix, out_len,
                                 rounds)
    stats = codegen.SOA_STATS
    calls = stats["kernel_calls"] - before["kernel_calls"]
    slots = (stats["lanes_hashed"] - before["lanes_hashed"]
             + stats["lanes_padded"] - before["lanes_padded"])
    return digests, calls, slots


def cases():
    return [(algorithm, out_len, count)
            for algorithm in SHAPES
            for out_len in OUT_LENS[algorithm]
            for count in COUNTS]


class TestWidthModel:
    @pytest.mark.parametrize("algorithm,out_len,count", cases())
    def test_model_matches_the_sponge(self, algorithm, out_len, count):
        messages = ragged(count)
        rate = SHAPES[algorithm][0]
        sizes = [len(m) for m in messages]
        width, planned = codegen.soa_sponge_plan(sizes, rate, out_len)
        digests, calls, slots = metered_sponge(messages, algorithm,
                                               out_len)
        assert digests == reference(algorithm, out_len, messages)
        assert calls == planned
        # Every metered call carried exactly ``width`` lane slots.
        assert slots == calls * width
        assert width <= codegen.soa_width()
        assert width <= widest(count)
        if out_len:
            chains = codegen.soa_chains(sizes, rate, out_len)
            assert planned == codegen.soa_schedule_calls(
                chains, widest(count))
            assert codegen.soa_schedule_calls(chains, width) \
                <= codegen.soa_schedule_calls(chains, codegen.soa_width())

    def test_chains_count_absorb_and_squeeze_blocks(self):
        # 0 and 135 bytes pad to one block; 136 to two.  An output of
        # one rate needs no extra permutation, one byte more needs one.
        assert codegen.soa_chains([0, 135, 136, 300], 136, 32) \
            == [1, 1, 2, 3]
        assert codegen.soa_chains([0, 136], 136, 136) == [1, 2]
        assert codegen.soa_chains([0, 136], 136, 137) == [2, 3]
        assert codegen.soa_chains([0], 168, 3 * 168 + 1) == [4]

    def test_small_batches_keep_the_bucket_width(self):
        for count in range(1, 17):
            messages = ragged(count, salt=1)
            width, planned = codegen.soa_sponge_plan(
                [len(m) for m in messages], 136, 32)
            assert width == widest(count)
            digests, calls, slots = metered_sponge(messages, "sha3_256",
                                                   32)
            assert digests == reference("sha3_256", 32, messages)
            assert (calls, slots) == (planned, planned * width)

    def test_the_lane_budget_still_caps(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOA_LANES", "16")
        messages = ragged(130)
        width, planned = codegen.soa_sponge_plan(
            [len(m) for m in messages], 168, 400)
        assert width <= 16
        digests, calls, slots = metered_sponge(messages, "shake128", 400)
        assert digests == reference("shake128", 400, messages)
        assert (calls, slots) == (planned, planned * width)

    def test_the_width_keeps_the_call_count_not_the_lane_floor(self):
        # Chains (10, 7, 7, 6) fill 30 lane-calls, but ceil(30 / 10) = 3
        # lanes would need 13 calls: 4 lanes keep the 10.
        assert codegen.soa_schedule_calls([10, 7, 7, 6], 3) == 13
        assert codegen.soa_schedule_calls([10, 7, 7, 6], 4) == 10
        # Eight copies (32 messages, past the small-batch rule): 24
        # lanes are ceil(240 / 10), but need 13 calls; 32 keep 10.
        sizes = [(chain - 1) * 136 for chain in (10, 7, 7, 6)] * 8
        chains = codegen.soa_chains(sizes, 136, 32)
        assert codegen.soa_schedule_calls(chains, 24) == 13
        assert codegen.soa_sponge_plan(sizes, 136, 32) == (32, 10)
        rng = random.Random(SEED)
        messages = [rng.randbytes(size) for size in sizes]
        digests, calls, slots = metered_sponge(messages, "sha3_256", 32)
        assert digests == reference("sha3_256", 32, tuple(messages))
        assert (calls, slots) == (10, 10 * 32)

    def test_a_batch_span_runs_narrower_at_the_same_calls(self):
        # Half of a batch mix: about 120 messages bounded by a 4 KiB
        # message (31 permutations).  The cap makes the same calls as a
        # narrower ladder width, which the plan therefore picks.
        messages = batch_mix(7)[:120]
        sizes = [len(m) for m in messages]
        chains = codegen.soa_chains(sizes, 136, 32)
        width, planned = codegen.soa_sponge_plan(sizes, 136, 32)
        assert width < codegen.soa_width()
        assert planned == codegen.soa_schedule_calls(
            chains, codegen.soa_width())
        digests, calls, _ = metered_sponge(messages, "sha3_256", 32)
        assert digests == reference("sha3_256", 32, tuple(messages))
        assert calls == planned

    def test_nothing_to_run_plans_no_calls(self):
        assert codegen.soa_sponge_plan([], 136, 32) == (1, 0)
        assert codegen.soa_sponge_plan([5, 6], 168, 0) == (1, 0)


# -- the widths a pool parent warms ---------------------------------------------


@pytest.fixture
def fresh_caches(tmp_path, monkeypatch):
    """An empty disk and memory cache; the shared pool forks under it."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen"))
    codegen.clear_memory_cache()
    metrics.disarm()
    metrics.registry().reset()
    yield
    metrics.disarm()
    metrics.registry().reset()
    shutdown_shared_pool()
    codegen.clear_memory_cache()


def armed_run(run):
    """``run()`` with metrics armed: (result, parent compiles, compiles
    merged from the parent and every worker, disk hits merged)."""
    metrics.registry().reset()
    before = codegen.SOA_STATS["compiles"]
    metrics.arm()
    try:
        result = run()
    finally:
        metrics.disarm()
    events = metrics.registry().get("sim_soa_codegen_total")
    return (result, codegen.SOA_STATS["compiles"] - before,
            events.value(event="compile"), events.value(event="disk_hit"))


def planned_widths(messages, spans):
    sizes = [len(m) for m in messages]
    return {codegen.soa_sponge_plan(sizes[a:b], 136, 32)[0]
            for a, b in spans}


def first_plan(messages):
    return batch_driver.plan_spans([len(m) for m in messages], 2,
                                   spans_per_worker=1)


@pytest.fixture
def dispatched(monkeypatch):
    """Every span the scheduler dispatches, steals included."""
    spans = []
    real_drive = scheduler.drive

    def spy_drive(pool, work, policy, hooks, stats, quarantine):
        def payload(span):
            spans.append(span)
            return hooks.payload(span)

        real_drive(pool, work, policy, dataclasses.replace(
            hooks, payload=payload), stats, quarantine)

    monkeypatch.setattr(scheduler, "drive", spy_drive)
    return spans


@pytest.mark.usefixtures("fresh_caches")
class TestParentWarm:
    def test_workers_compile_nothing(self):
        first, second = batch_mix(1), batch_mix(2)[:100]
        first_widths = planned_widths(first, first_plan(first))
        second_widths = planned_widths(second, first_plan(second))
        # The second batch needs a width the forked workers never saw.
        assert second_widths - first_widths
        assert codegen.soa_width() not in first_widths | second_widths
        for messages, widths in ((first, first_widths),
                                 (second, second_widths)):
            digests, parent, merged, _ = armed_run(
                lambda: run_many(messages, workers=2, engine="soa"))
            assert digests == [hashlib.sha3_256(m).digest()
                               for m in messages]
            assert merged == parent == len(widths)
        # The cap's kernel was never built, by the parent or a worker.
        unused = codegen._disk_path(
            codegen.soa_fingerprint(codegen.soa_width(), 24))
        assert not os.path.exists(unused)

    def test_forced_steal_compiles_the_missing_width(self, monkeypatch,
                                                     dispatched):
        # One planned span for two workers: the first dispatch steals
        # half of it, and the halves need a narrower kernel than the
        # whole span the parent warmed.
        messages = batch_mix(3)
        whole = [(0, len(messages))]
        monkeypatch.setattr(batch_driver, "plan_spans",
                            lambda *args, **kwargs: list(whole))
        report, parent, merged, _ = armed_run(
            lambda: run_many_report(messages, workers=2, engine="soa"))
        assert report.results == [hashlib.sha3_256(m).digest()
                                  for m in messages]
        assert report.stats.steals >= 1
        assert parent == len(planned_widths(messages, whole))
        assert planned_widths(messages, dispatched) \
            - planned_widths(messages, whole)
        assert merged > parent

    def test_resumed_sub_span_needs_an_unwarmed_width(self, tmp_path,
                                                      dispatched):
        path = str(tmp_path / "manifest.json")
        messages = batch_mix(4)
        options = dict(workers=2, engine="soa", checkpoint=path)
        expected = [hashlib.sha3_256(m).digest() for m in messages]
        assert run_many_report(messages, **options).results == expected
        plan = first_plan(messages)
        with open(path) as handle:
            saved = json.load(handle)
        start, stop = plan[0]
        del saved["completed"][f"{start}:{stop}"]
        with open(path, "w") as handle:
            json.dump(saved, handle)
        dispatched.clear()

        report = run_many_report(messages, **options)
        assert report.results == expected
        assert report.stats.checkpoint_hits == 1
        assert report.stats.steals >= 1
        assert planned_widths(messages, dispatched) \
            - planned_widths(messages, plan)
