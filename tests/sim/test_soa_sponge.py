"""The resident SoA sponge: a seeded differential matrix and a call bound.

``codegen.sponge_soa`` keeps every state in the 25 packed columns
between permutations, absorbs word-wise, squeezes straight out of the
columns and refills a lane as soon as its message is squeezed.  Every
way into it — the serial ``hash_messages`` body, the shm span task, the
pickle chunk task and the tree-hash leaf planner — must give the bytes
of hashlib (or of the pure-Python TurboSHAKE for ``k12_leaf``), on
random messages whose sizes straddle the rate boundaries.
"""

import functools
import hashlib
import math
import random

import pytest

from repro.keccak import (
    K12_LEAF,
    PH128_LEAF,
    PH256_LEAF,
    hash_leaves,
    kangarootwelve,
    parallelhash128,
    parallelhash256,
)
from repro.keccak.kangarootwelve import turboshake128
from repro.observability import metrics
from repro.programs.batch_driver import (
    hash_messages,
    run_many,
    supported_algorithms,
)
from repro.sim import codegen

ARCH = (64, 8, 30)
SEED = 0x5A3

#: Flat sponge algorithms: (rate bytes, whether the caller picks the
#: output length).
RATES = {
    "sha3_256": (136, False),
    "shake128": (168, True),
    "shake256": (136, True),
    "k12_leaf": (168, False),
}
COUNTS = (1, 63, 64, 65, 130)


def expected(algorithm, length, messages):
    return list(_expected(algorithm, length, tuple(messages)))


@functools.lru_cache(maxsize=None)
def _expected(algorithm, length, messages):
    # Cached: the pure-Python TurboSHAKE reference is the slow part.
    if algorithm == "sha3_256":
        return [hashlib.sha3_256(m).digest() for m in messages]
    if algorithm == "shake128":
        return [hashlib.shake_128(m).digest(length) for m in messages]
    if algorithm == "shake256":
        return [hashlib.shake_256(m).digest(length) for m in messages]
    return [turboshake128(m, 32, domain=0x0B) for m in messages]


def lengths(algorithm):
    rate, xof = RATES[algorithm]
    if not xof:
        return (32,)
    return (0, 1, 32, rate - 1, rate, rate + 1, 2 * rate + 5)


@functools.lru_cache(maxsize=None)
def _messages(algorithm, count, salt):
    """Seeded messages: rate-boundary sizes mixed with random ones."""
    rate = RATES[algorithm][0]
    rng = random.Random(f"{SEED}-{algorithm}-{count}-{salt}")
    edges = (0, rate - 1, rate, rate + 1, 2 * rate - 1, 2 * rate,
             2 * rate + 1)
    sizes = [edges[i // 2 % len(edges)] if i % 2 else rng.randrange(4097)
             for i in range(count)]
    rng.shuffle(sizes)
    return tuple(rng.randbytes(size) for size in sizes)


def messages_for(algorithm, count, salt=0):
    return list(_messages(algorithm, count, salt))


def serial_cases():
    return [(algorithm, length, count)
            for algorithm in RATES
            for length in lengths(algorithm)
            for count in COUNTS]


def pool_cases():
    """Every (algorithm, count) at the longest output, plus every
    output length at the first count past one lane group."""
    cases = set()
    for algorithm in RATES:
        longest = lengths(algorithm)[-1]
        cases.update((algorithm, longest, count) for count in COUNTS)
        cases.update((algorithm, length, 65)
                     for length in lengths(algorithm))
    return sorted(cases)


class TestDifferentialMatrix:
    @pytest.mark.parametrize("algorithm,length,count", serial_cases())
    def test_serial_hash_messages(self, algorithm, length, count):
        messages = messages_for(algorithm, count)
        assert hash_messages(algorithm, length, ARCH, "soa", messages) \
            == expected(algorithm, length, messages)

    @pytest.mark.parametrize("transport", ("shm", "pickle"))
    @pytest.mark.parametrize("algorithm,length,count", pool_cases())
    def test_pooled_run_many(self, algorithm, length, count, transport):
        messages = messages_for(algorithm, count)
        digests = run_many(messages, algorithm=algorithm, length=length,
                           workers=2, engine="soa", transport=transport)
        assert digests == expected(algorithm, length, messages)

    @pytest.mark.parametrize("algorithm", sorted(RATES))
    def test_narrow_lane_budget_refills(self, algorithm, monkeypatch):
        # 17 messages under a 16-lane cap: no kernel is wider than 16
        # lanes, so a later message enters the first lane to finish.
        monkeypatch.setenv("REPRO_SOA_LANES", "16")
        length = lengths(algorithm)[-1]
        messages = messages_for(algorithm, 17)
        want = expected(algorithm, length, messages)
        before = codegen.SOA_STATS["lanes_padded"]
        assert hash_messages(algorithm, length, ARCH, "soa",
                             messages) == want
        for transport in ("shm", "pickle"):
            assert run_many(messages, algorithm=algorithm, length=length,
                            workers=2, engine="soa",
                            transport=transport) == want
        assert codegen.SOA_STATS["lanes_padded"] > before

    def test_inputs_keep_their_order_on_ties(self):
        # Equal lengths tie in the longest-first schedule; a stable
        # sort must still hand every digest back to its own message.
        messages = [bytes([n]) * 200 for n in range(70)] + [b""] * 3
        assert hash_messages("sha3_256", 32, ARCH, "soa", messages) \
            == expected("sha3_256", 32, messages)

    def test_bytes_like_messages(self):
        messages = messages_for("shake128", 9)
        views = [memoryview(m) for m in messages[:3]] \
            + [bytearray(m) for m in messages[3:6]] + messages[6:]
        assert codegen.sponge_soa(views, 168, 0x1F, 200) \
            == expected("shake128", 200, messages)

    def test_empty_batch_and_zero_length(self):
        before = codegen.SOA_STATS["kernel_calls"]
        assert hash_messages("shake128", 0, ARCH, "soa", []) == []
        assert hash_messages("shake256", 0, ARCH, "soa",
                             [b"a", b""]) == [b"", b""]
        assert codegen.SOA_STATS["kernel_calls"] == before

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            codegen.sponge_soa([b""], 100, 0x06, 32)

    def test_every_supported_algorithm_matches_reference(self):
        messages = messages_for("sha3_256", 6, salt=1)
        for algorithm in supported_algorithms():
            assert hash_messages(algorithm, 48, ARCH, "soa", messages) \
                == hash_messages(algorithm, 48, ARCH, "reference",
                                 messages), algorithm


class TestLeafPlanner:
    """K12 and ParallelHash leaves through the planner's batched path."""

    @pytest.mark.parametrize("spec", (K12_LEAF, PH128_LEAF, PH256_LEAF),
                             ids=lambda spec: spec.algorithm)
    def test_leaf_batches_match_sequential_sponge(self, spec):
        rng = random.Random(f"{SEED}-leaves-{spec.algorithm}")
        leaves = [rng.randbytes(rng.choice((0, 167, 168, 169, 1500)))
                  for _ in range(70)]
        assert hash_leaves(leaves, spec, engine="soa") \
            == [spec.reference_cv(leaf) for leaf in leaves]

    def test_tree_hashes_match_reference_engine(self):
        rng = random.Random(f"{SEED}-trees")
        data = rng.randbytes(3 * 8192 + 77)
        assert kangarootwelve(data, 64, engine="soa") \
            == kangarootwelve(data, 64, engine="reference")
        assert parallelhash128(data, 32, engine="soa") \
            == parallelhash128(data, 32, engine="reference")
        assert parallelhash256(data, 64, engine="soa") \
            == parallelhash256(data, 64, engine="reference")


class TestKernelCallBound:
    """The ``batch`` workload's size mix keeps every lane busy."""

    SIZES = [round(4096 * (i / 239) ** 2) for i in range(240)]

    @staticmethod
    def permutations(size):
        return size // 136 + 1

    def test_calls_within_two_of_the_lane_floor(self):
        rng = random.Random(SEED)
        sizes = list(self.SIZES)
        rng.shuffle(sizes)
        messages = [rng.randbytes(size) for size in sizes]
        width = codegen.soa_width()
        floor = math.ceil(sum(map(self.permutations, sizes)) / width)
        before = dict(codegen.SOA_STATS)
        digests = hash_messages("sha3_256", 32, ARCH, "soa", messages)
        assert digests == expected("sha3_256", 32, messages)
        calls = codegen.SOA_STATS["kernel_calls"] - before["kernel_calls"]
        hashed = codegen.SOA_STATS["lanes_hashed"] \
            - before["lanes_hashed"]
        assert calls <= floor + 2
        assert hashed == sum(map(self.permutations, sizes))
        assert hashed / (calls * width) >= 0.9

    def test_every_call_is_metered(self):
        metrics.disarm()
        metrics.registry().reset()
        messages = messages_for("shake256", 65)
        metrics.arm()
        try:
            before = codegen.SOA_STATS["kernel_calls"]
            hash_messages("shake256", 300, ARCH, "soa", messages)
            calls = codegen.SOA_STATS["kernel_calls"] - before
        finally:
            metrics.disarm()
        registry = metrics.registry()
        rate = 136
        width, planned = codegen.soa_sponge_plan(
            [len(m) for m in messages], rate, 300)
        assert planned == calls
        by_width = {series["labels"]["lanes"]: series["value"]
                    for series in registry.get(
                        "sim_soa_kernel_calls_total").snapshot()["series"]}
        assert by_width == {str(width): calls}
        [series] = registry.get("sim_soa_lane_occupancy") \
            .snapshot()["series"]
        assert series["value"]["count"] == calls
        metrics.registry().reset()
