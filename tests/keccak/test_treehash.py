"""Tree hashing: ParallelHash/TupleHash vectors, the leaf planner
matrix, streaming objects, and kill-and-resume of a pooled tree batch.

The cross-path matrix is the module's core claim: every (leaf count,
engine, workers) combination must produce chaining values bit-identical
to the sequential pure-Python sponge, because the planner is allowed to
pick any of them at its own discretion.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.keccak import (
    K12_LEAF,
    PH128_LEAF,
    PH256_LEAF,
    ParallelHash128,
    ParallelHash256,
    hash_leaves,
    kangarootwelve,
    parallelhash128,
    parallelhash128_xof,
    parallelhash256,
    parallelhash256_xof,
    plan_tree,
    tuplehash128,
    tuplehash128_xof,
    tuplehash256,
    tuplehash256_xof,
)
from repro.keccak.kangarootwelve import K12_CHUNK_BYTES, k12_pattern
from repro.keccak.treehash import MIN_BATCH_LEAVES, TreePlan
from repro.sim import engines as sim_engines

# NIST SP 800-185 sample inputs (the published sample files' byte
# sequences 00 01 02 ... laid out as in the samples document).
_T1 = (b"\x00\x01\x02", b"\x10\x11\x12\x13\x14\x15")
_T3 = _T1 + (b"\x20\x21\x22\x23\x24\x25\x26\x27\x28",)
_X24 = bytes(range(8)) + bytes(range(0x10, 0x18)) + bytes(range(0x20, 0x28))
_X44 = (bytes(range(0x0C)) + bytes(range(0x10, 0x1C))
        + bytes(range(0x20, 0x2C)) + bytes(range(0x30, 0x38)))
_S = b"Parallel Data"


class TestTupleHashVectors:
    """NIST SP 800-185 TupleHash samples."""

    def test_tuplehash128_sample1(self):
        assert tuplehash128(_T1, 32).hex().upper() == (
            "C5D8786C1AFB9B82111AB34B65B2C004"
            "8FA64E6D48E263264CE1707D3FFC8ED1"
        )

    def test_tuplehash128_sample2_customization(self):
        assert tuplehash128(_T1, 32, b"My Tuple App").hex().upper() == (
            "75CDB20FF4DB1154E841D758E24160C5"
            "4BAE86EB8C13E7F5F40EB35588E96DFB"
        )

    def test_tuplehash128_sample3_three_strings(self):
        assert tuplehash128(_T3, 32, b"My Tuple App").hex().upper() == (
            "E60F202C89A2631EDA8D4C588CA5FD07"
            "F39E5151998DECCF973ADB3804BB6E84"
        )

    def test_tuplehash256_sample1(self):
        assert tuplehash256(_T1, 64).hex().upper() == (
            "CFB7058CACA5E668F81A12A20A2195CE97A925F1DBA3E744"
            "9A56F82201EC607311AC2696B1AB5EA2352DF1423BDE7BD4"
            "BB78C9AED1A853C78672F9EB23BBE194"
        )

    def test_tuple_boundaries_are_unambiguous(self):
        # ("ab", "c") and ("a", "bc") concatenate identically; the
        # encode_string framing must still separate them.
        assert tuplehash128((b"ab", b"c"), 32) != \
            tuplehash128((b"a", b"bc"), 32)

    def test_xof_variant_differs_and_streams_consistently(self):
        fixed = tuplehash128(_T1, 32)
        xof = tuplehash128_xof(_T1, 32)
        assert fixed != xof  # L is encoded into the node for the fixed form
        assert tuplehash128_xof(_T1, 64)[:32] == xof
        assert tuplehash256_xof(_T1, 64)[:32] == \
            tuplehash256_xof(_T1, 32)

    def test_256_xof_differs_from_fixed(self):
        assert tuplehash256(_T1, 64) != tuplehash256_xof(_T1, 64)

    def test_empty_tuple_and_empty_strings_distinct(self):
        assert tuplehash128((), 32) != tuplehash128((b"",), 32)
        assert tuplehash128((b"",), 32) != tuplehash128((b"", b""), 32)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            tuplehash128(_T1, -1)


class TestParallelHashVectors:
    """NIST SP 800-185 ParallelHash samples (block size 8 and 12)."""

    def test_parallelhash128_sample1(self):
        assert parallelhash128(_X24, 32, 8).hex().upper() == (
            "BA8DC1D1D979331D3F813603C67F7260"
            "9AB5E44B94A0B8F9AF46514454A2B4F5"
        )

    def test_parallelhash128_sample2_customization(self):
        assert parallelhash128(_X24, 32, 8, _S).hex().upper() == (
            "FC484DCB3F84DCEEDC353438151BEE58"
            "157D6EFED0445A81F165E495795B7206"
        )

    def test_parallelhash128_sample3_ragged_tail(self):
        # 44 bytes over B=12: three full blocks plus an 8-byte tail.
        assert parallelhash128(_X44, 32, 12, _S).hex().upper() == (
            "8887CF08CB274D54D371832ADCBDA586"
            "B657ED350DCAAD88128145F406BD6030"
        )

    def test_parallelhash256_sample1(self):
        assert parallelhash256(_X24, 64, 8).hex().upper() == (
            "BC1EF124DA34495E948EAD207DD98422"
            "35DA432D2BBC54B4C110E64C45110553"
            "1B7F2A3E0CE055C02805E7C2DE1FB746"
            "AF97A1DD01F43B824E31B87612410429"
        )

    def test_parallelhash256_sample2_customization(self):
        assert parallelhash256(_X24, 64, 8, _S).hex().upper() == (
            "CDF15289B54F6212B4BC270528B49526"
            "006DD9B54E2B6ADD1EF6900DDA3963BB"
            "33A72491F236969CA8AFAEA29C682D47"
            "A393C065B38E29FAE651A2091C833110"
        )

    def test_parallelhash256_sample3_ragged_tail(self):
        assert parallelhash256(_X44, 64, 12, _S).hex().upper() == (
            "FC40E2421457E8D89AA802F5AD76B811"
            "7E334046F8F2548605503A7655328E35"
            "80212D67107FBFA262A90BD25CBB8C36"
            "089CC49FD4CE614AFE2E2159749E579F"
        )

    def test_parallelhash128_xof_samples(self):
        assert parallelhash128_xof(_X24, 32, 8).hex().upper() == (
            "FE47D661E49FFE5B7D999922C0623567"
            "50CAF552985B8E8CE6667F2727C3C8D3"
        )
        assert parallelhash128_xof(_X24, 32, 8, _S).hex().upper() == (
            "EA2A793140820F7A128B8EB70A9439F9"
            "3257C6E6E79B4A540D291D6DAE7098D7"
        )
        assert parallelhash128_xof(_X44, 32, 12, _S).hex().upper() == (
            "DB33BA3F1D9F5B2E566E160DAB5FC6F5"
            "BB48AB7CACA6A6B58CEF1FF07B6403A9"
        )

    def test_parallelhash256_xof_sample3(self):
        assert parallelhash256_xof(_X44, 64, 12, _S).hex().upper() == (
            "8B2757AEF066BA37135D201FBE57F354"
            "77A0C1D29086062F118013109F73BDA7"
            "FB69B6744EA2D2B2DB4C7A7053379190"
            "815FA0A7B31496FC6C46E7460EDE4D01"
        )

    def test_xof_prefix_consistent(self):
        assert parallelhash128_xof(_X24, 64, 8)[:32] == \
            parallelhash128_xof(_X24, 32, 8)

    def test_block_size_and_length_validated(self):
        with pytest.raises(ValueError):
            parallelhash128(b"x", 32, 0)
        with pytest.raises(ValueError):
            parallelhash128(b"x", -1)

    def test_empty_message_is_one_empty_block(self):
        # SP 800-185: n = ceil(len/B) = 0 blocks for the empty string.
        assert len(parallelhash128(b"", 32)) == 32
        assert parallelhash128(b"", 32) != parallelhash128(b"\x00", 32)


class TestPlanner:
    def test_below_floor_is_sequential(self):
        for count in range(MIN_BATCH_LEAVES):
            plan = plan_tree(count)
            assert plan.mode == "sequential"
            assert plan.workers == 1

    def test_reference_without_pool_is_sequential(self):
        plan = plan_tree(100, engine="reference", workers=1)
        assert plan.mode == "sequential"
        assert plan.engine == "reference"

    def test_auto_prefers_soa(self):
        plan = plan_tree(100)
        assert plan.engine == "soa"
        assert plan.mode == "batched"
        assert plan.lane_width >= 1

    def test_pooled_needs_two_lane_groups(self):
        batched = plan_tree(100, workers=4)  # 100 < 2 * 64 soa lanes
        assert batched.mode == "batched"
        pooled = plan_tree(1000, workers=4)
        assert pooled.mode == "pooled"
        assert pooled.workers == 4

    def test_reference_pool_is_pooled(self):
        # The reference engine has no lane groups (whole-message C
        # hashing), so two leaves already fill 2 * lane_width = 2.
        plan = plan_tree(100, engine="reference", workers=2)
        assert plan.mode == "pooled"
        assert plan.lane_width == 1

    def test_twelve_round_plans_match_twenty_four(self):
        # Lane width comes from the arch, not the round count.
        assert plan_tree(500, num_rounds=12).lane_width == \
            plan_tree(500, num_rounds=24).lane_width

    def test_reasons_are_human_readable(self):
        assert "floor" in plan_tree(1).reason
        assert "workers" in plan_tree(1000, workers=4).reason

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            plan_tree(10, workers=-1)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            plan_tree(10, engine="warp-drive")

    def test_plan_is_frozen(self):
        plan = plan_tree(10)
        assert isinstance(plan, TreePlan)
        with pytest.raises(AttributeError):
            plan.mode = "other"


# -- the cross-path identity matrix -------------------------------------------

#: Leaf counts exercising every interesting lane boundary: below the
#: batching floor, one lane group minus one, exactly one group, one
#: group plus one, and a pool-worthy set.
LEAF_COUNTS = (1, 2, 63, 64, 65, 1000)

_MATRIX_ENGINES = [name for name in ("soa", "compiled", "reference")
                   if name in sim_engines.names()]


def _leaves(count):
    return [bytes([n % 251]) * (40 + n % 64) for n in range(count)]


@pytest.fixture(scope="module")
def reference_cvs():
    cache = {}

    def get(spec, count):
        key = (spec.algorithm, count)
        if key not in cache:
            cache[key] = [spec.reference_cv(leaf)
                          for leaf in _leaves(count)]
        return cache[key]

    return get


class TestCrossPathIdentity:
    @pytest.mark.parametrize("count", LEAF_COUNTS)
    @pytest.mark.parametrize("engine", _MATRIX_ENGINES)
    @pytest.mark.parametrize("workers", (1, 4))
    def test_k12_leaves_bit_identical(self, count, engine, workers,
                                      reference_cvs):
        got = hash_leaves(_leaves(count), K12_LEAF, engine=engine,
                          workers=workers)
        assert got == reference_cvs(K12_LEAF, count), (
            f"count={count} engine={engine} workers={workers} diverged "
            "from the sequential reference"
        )

    @pytest.mark.parametrize("count", (1, 65))
    @pytest.mark.parametrize("engine", _MATRIX_ENGINES)
    def test_shake_leaf_specs_bit_identical(self, count, engine,
                                            reference_cvs):
        for spec in (PH128_LEAF, PH256_LEAF):
            got = hash_leaves(_leaves(count), spec, engine=engine)
            assert got == reference_cvs(spec, count)

    def test_shake_leaves_match_hashlib(self):
        leaves = _leaves(65)
        assert hash_leaves(leaves, PH128_LEAF) == \
            [hashlib.shake_128(leaf).digest(32) for leaf in leaves]
        assert hash_leaves(leaves, PH256_LEAF) == \
            [hashlib.shake_256(leaf).digest(64) for leaf in leaves]

    def test_parallelhash_identical_across_paths(self):
        # 40 blocks of 64 bytes: batched vs pooled vs pure sequential.
        data = k12_pattern(40 * 64)
        expected = parallelhash128(data, 32, 64, engine="reference")
        assert parallelhash128(data, 32, 64, engine="soa") == expected
        assert parallelhash128(data, 32, 64, engine="reference",
                               workers=2) == expected
        assert parallelhash256(data, 64, 64, engine="soa") == \
            parallelhash256(data, 64, 64, engine="reference")

    def test_k12_identical_across_paths(self):
        message = k12_pattern(5 * K12_CHUNK_BYTES + 117)
        expected = kangarootwelve(message, 48, engine="reference")
        assert kangarootwelve(message, 48) == expected
        assert kangarootwelve(message, 48, engine="reference",
                              workers=2) == expected


class TestParallelHashObjects:
    def test_update_matches_one_shot(self):
        obj = ParallelHash128(customization=_S, block_size=8)
        obj.update(_X24[:10])
        obj.update(_X24[10:])
        assert obj.digest(32) == parallelhash128(_X24, 32, 8, _S)
        assert obj.hexdigest(32) == obj.digest(32).hex()

    def test_digest_is_restartable(self):
        obj = ParallelHash256(_X24, 8)
        assert obj.digest(64) == obj.digest(64)
        assert obj.digest(32) == parallelhash256(_X24, 32, 8)

    def test_read_streams_the_xof_variant(self):
        obj = ParallelHash128(_X44, 12, _S)
        assert not obj.squeezing
        first, second = obj.read(16), obj.read(16)
        assert obj.squeezing
        assert first + second == parallelhash128_xof(_X44, 32, 12, _S)

    def test_update_after_read_rejected(self):
        obj = ParallelHash128(b"x", 8)
        obj.read(1)
        with pytest.raises(RuntimeError):
            obj.update(b"more")

    def test_copy_preserves_stream_position(self):
        obj = ParallelHash128(_X24, 8)
        obj.read(16)
        clone = obj.copy()
        assert clone.read(16) == obj.read(16)

    def test_copy_before_read_is_independent(self):
        obj = ParallelHash128(_X24, 8)
        clone = obj.copy()
        obj.update(b"tail")
        assert clone.digest(32) == parallelhash128(_X24, 32, 8)

    def test_base_class_refuses_instantiation(self):
        from repro.keccak.treehash import _ParallelHashBase

        with pytest.raises(TypeError):
            _ParallelHashBase()

    def test_block_size_validated(self):
        with pytest.raises(ValueError):
            ParallelHash128(block_size=0)


class TestKillAndResume:
    """SIGKILL a pooled tree-hash batch mid-run, resume from the
    manifest, and require byte-identical digests with checkpoint hits."""

    COUNT, SEED = 12, 7
    SIZE = 2 * K12_CHUNK_BYTES + 1024  # three leaf chunks per message

    def _argv(self, manifest):
        return [sys.executable, "-m", "repro", "batch",
                "--algorithm", "k12", "--length", "32",
                "--count", str(self.COUNT), "--size", str(self.SIZE),
                "--seed", str(self.SEED), "--workers", "2",
                "--resume", manifest]

    def test_killed_tree_batch_resumes_byte_identical(self, tmp_path):
        from repro.programs import run_many_report

        manifest = str(tmp_path / "tree.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__),
                                       "..", "..", "src"),
                          env.get("PYTHONPATH", "")]))
        child = subprocess.Popen(self._argv(manifest), env=env,
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL,
                                 start_new_session=True)
        try:
            deadline = time.monotonic() + 120
            progressed = False
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    break  # finished before the kill could land
                try:
                    with open(manifest) as handle:
                        saved = json.load(handle)
                    if len(saved.get("completed", {})) >= 2:
                        progressed = True
                        break
                except (OSError, json.JSONDecodeError):
                    pass  # not written yet / mid-replace
                time.sleep(0.01)
            if progressed:
                os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=60)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup path
                os.killpg(child.pid, signal.SIGKILL)
                child.wait(timeout=60)

        with open(manifest) as handle:
            completed = len(json.load(handle)["completed"])
        assert completed >= 1

        import random
        rng = random.Random(self.SEED)
        messages = [rng.randbytes(self.SIZE) for _ in range(self.COUNT)]
        outcome = run_many_report(messages, algorithm="k12", length=32,
                                  workers=2, checkpoint=manifest)
        assert outcome.ok
        assert outcome.stats.checkpoint_hits == completed
        assert outcome.results == [
            kangarootwelve(m, 32, engine="reference") for m in messages
        ]
