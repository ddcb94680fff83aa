"""The cheap reset is exact, and so is the row-slice memory image.

``DataMemory.clear`` zeroes only the byte range written since the last
clear, and a :class:`Session` reuses one processor per architecture
across runs.  Both are optimizations only: after a clear every byte
reads 0, and a run on a reused session returns the same states and the
same cycle count as a run on a freshly built processor, whatever ran on
the session before.  ``memory_image64``/``parse_memory_image64`` move
whole rows; they must agree with a lane-by-lane reference.
"""

import random

import pytest

from repro.keccak import KeccakState, keccak_f1600
from repro.programs import build_program, layout
from repro.programs.runner import run_keccak_program
from repro.programs.session import Session
from repro.sim import DataMemory, MemoryAccessError
from repro.sim.processor import SIMDProcessor


def _states(rng, count):
    return [KeccakState([rng.getrandbits(64) for _ in range(25)])
            for _ in range(count)]


def _all_zero(mem):
    return mem.load_bytes(0, mem.size) == bytes(mem.size)


class TestClear:
    SIZE = 256

    @pytest.mark.parametrize("address,width", [
        (0, 8), (0, 64), (100, 32), (256 - 8, 64), (256 - 2, 16),
        (256 - 1, 8),
    ])
    def test_typed_store_then_clear(self, address, width):
        mem = DataMemory(self.SIZE)
        mem.store(address, width, (1 << width) - 1)
        assert not _all_zero(mem)
        mem.clear()
        assert _all_zero(mem)

    @pytest.mark.parametrize("address,length", [
        (0, 1), (0, 256), (17, 40), (256 - 40, 40), (256 - 1, 1),
    ])
    def test_bulk_store_then_clear(self, address, length):
        mem = DataMemory(self.SIZE)
        mem.store_bytes(address, b"\xff" * length)
        mem.clear()
        assert _all_zero(mem)

    def test_low_and_high_writes_both_cleared(self):
        mem = DataMemory(self.SIZE)
        mem.store(0, 8, 0xAA)
        mem.store_bytes(self.SIZE - 1, b"\x55")
        mem.store(self.SIZE // 2, 64, 0x0123456789ABCDEF)
        mem.clear()
        assert _all_zero(mem)

    def test_zero_length_store_bytes(self):
        mem = DataMemory(self.SIZE)
        mem.store_bytes(0, b"")
        mem.store_bytes(self.SIZE, b"")  # end of memory: empty and legal
        mem.clear()
        assert _all_zero(mem)
        mem.store(8, 64, 1)
        mem.store_bytes(200, b"")
        mem.clear()
        assert _all_zero(mem)
        with pytest.raises(MemoryAccessError):
            mem.store_bytes(self.SIZE + 1, b"")

    def test_failed_store_writes_nothing(self):
        mem = DataMemory(self.SIZE)
        with pytest.raises(MemoryAccessError):
            mem.store(self.SIZE - 4, 64, -1)
        with pytest.raises(MemoryAccessError):
            mem.store_bytes(self.SIZE - 4, b"\xff" * 8)
        assert _all_zero(mem)

    def test_random_writes_against_a_model(self):
        rng = random.Random(0x5EED)
        mem = DataMemory(self.SIZE)
        model = bytearray(self.SIZE)
        for step in range(2000):
            action = rng.random()
            if action < 0.05:
                mem.clear()
                model = bytearray(self.SIZE)
                assert _all_zero(mem)
            elif action < 0.55:
                width = rng.choice((8, 16, 32, 64))
                nbytes = width // 8
                address = rng.randrange(self.SIZE - nbytes + 1)
                value = rng.getrandbits(width)
                mem.store(address, width, value)
                model[address:address + nbytes] = value.to_bytes(
                    nbytes, "little")
            else:
                length = rng.randrange(0, 48)
                address = rng.randrange(self.SIZE - length + 1)
                data = rng.randbytes(length)
                mem.store_bytes(address, data)
                model[address:address + length] = data
            assert mem.load_bytes(0, self.SIZE) == bytes(model), step

    @pytest.mark.parametrize("elen,lmul", [(64, 8), (32, 8)])
    def test_clear_after_a_kernel_run(self, elen, lmul):
        program = build_program(elen, lmul, 15, include_memory_io=True)
        session = Session()
        states = _states(random.Random(7), program.max_states)
        session.run(program, states)
        mem = session.processor(elen, 15).memory
        assert not _all_zero(mem)
        mem.clear()
        assert _all_zero(mem)


#: (ELEN, LMUL) of the paper's three programs.
ARCHS = [(64, 1), (64, 8), (32, 8)]
ELENUMS = [5, 15, 30]


class TestSessionReuseIsExact:
    @pytest.mark.parametrize("engine",
                             ["compiled", "predecoded", "fused", "stepped"])
    def test_reused_session_equals_fresh_processor(self, engine):
        rng = random.Random(f"reuse-{engine}")
        configs = [(elen, lmul, elenum, io)
                   for elen, lmul in ARCHS
                   for elenum in ELENUMS
                   for io in (True, False)]
        jobs = []
        for elen, lmul, elenum, io in configs:
            program = build_program(elen, lmul, elenum,
                                    include_memory_io=io)
            for _ in range(2):
                count = rng.randint(1, program.max_states)
                jobs.append((program, _states(rng, count)))
        rng.shuffle(jobs)

        session = Session(engine=engine)
        for program, states in jobs:
            fresh = run_keccak_program(
                program, states,
                processor=SIMDProcessor(elen=program.elen,
                                        elenum=program.elenum,
                                        engine=engine))
            reused = session.run(program, states)
            assert reused.states == fresh.states
            assert reused.states == [keccak_f1600(s) for s in states]
            assert reused.stats.cycles == fresh.stats.cycles
            assert reused.stats.instructions == fresh.stats.instructions
        assert len(session._processors) == len(
            {(elen, elenum) for elen, _, elenum, _ in configs})


def _reference_image64(states, elenum):
    image = bytearray(5 * elenum * 8)
    for s, state in enumerate(states):
        for y in range(5):
            for x in range(5):
                offset = (y * elenum + 5 * s + x) * 8
                image[offset:offset + 8] = state[x, y].to_bytes(8, "little")
    return bytes(image)


def _reference_parse64(data, elenum, num_states):
    states = []
    for s in range(num_states):
        state = KeccakState()
        for y in range(5):
            for x in range(5):
                offset = (y * elenum + 5 * s + x) * 8
                state[x, y] = int.from_bytes(data[offset:offset + 8],
                                             "little")
        states.append(state)
    return states


class TestRowSliceImage64:
    @pytest.mark.parametrize("elenum", [5, 7, 10, 15, 30])
    def test_matches_per_lane_reference(self, elenum):
        rng = random.Random(elenum)
        for count in range(1, elenum // 5 + 1):
            states = _states(rng, count)
            image = layout.memory_image64(states, elenum)
            assert image == _reference_image64(states, elenum)
            assert layout.parse_memory_image64(image, elenum, count) \
                == states
            noise = rng.randbytes(len(image))
            assert layout.parse_memory_image64(noise, elenum, count) \
                == _reference_parse64(noise, elenum, count)

    def test_extreme_lanes(self):
        states = [KeccakState([0] * 25),
                  KeccakState([(1 << 64) - 1] * 25),
                  KeccakState([1 << 63] * 25)]
        image = layout.memory_image64(states, 15)
        assert image == _reference_image64(states, 15)
        assert layout.parse_memory_image64(image, 15, 3) == states

    def test_longer_image_parses_its_prefix(self):
        states = _states(random.Random(3), 1)
        image = layout.memory_image64(states, 5) + b"\xff" * 16
        assert layout.parse_memory_image64(image, 5, 1) == states

    def test_short_image_and_capacity_rejected(self):
        with pytest.raises(ValueError):
            layout.parse_memory_image64(bytes(5 * 5 * 8 - 1), 5, 1)
        with pytest.raises(ValueError):
            layout.memory_image64(_states(random.Random(4), 2), 5)
