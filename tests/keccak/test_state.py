"""Tests for the KeccakState array and its partition views (Fig. 2)."""

import pytest

from repro.keccak import KeccakState


def indexed_state():
    """State whose lane (x, y) holds the value 10*y + x (easy to track)."""
    return KeccakState([10 * (i // 5) + (i % 5) for i in range(25)])


class TestConstruction:
    def test_default_is_all_zero(self):
        state = KeccakState()
        assert all(lane == 0 for lane in state.lanes)

    def test_from_lane_list(self):
        state = KeccakState(list(range(25)))
        assert state.lanes == tuple(range(25))

    def test_wrong_lane_count_rejected(self):
        with pytest.raises(ValueError, match="25 lanes"):
            KeccakState([0] * 24)

    def test_oversized_lane_rejected(self):
        lanes = [0] * 25
        lanes[7] = 1 << 64
        with pytest.raises(ValueError, match="64-bit"):
            KeccakState(lanes)

    def test_negative_lane_rejected(self):
        lanes = [0] * 25
        lanes[0] = -1
        with pytest.raises(ValueError):
            KeccakState(lanes)

    def test_constructor_copies_input(self):
        lanes = [0] * 25
        state = KeccakState(lanes)
        lanes[0] = 99
        assert state[0, 0] == 0


class TestIndexing:
    def test_get_set_round_trip(self):
        state = KeccakState()
        state[3, 2] = 0xABCD
        assert state[3, 2] == 0xABCD

    def test_lane_order_is_row_major(self):
        state = indexed_state()
        assert state[2, 4] == 42
        assert state.lanes[5 * 4 + 2] == 42

    def test_out_of_range_coordinates(self):
        state = KeccakState()
        with pytest.raises(IndexError):
            state[5, 0]
        with pytest.raises(IndexError):
            state[0, -1]

    def test_oversized_value_rejected(self):
        state = KeccakState()
        with pytest.raises(ValueError):
            state[0, 0] = 1 << 64

    def test_get_bit(self):
        state = KeccakState()
        state[1, 1] = 0b1010
        assert state.get_bit(1, 1, 0) == 0
        assert state.get_bit(1, 1, 1) == 1
        assert state.get_bit(1, 1, 3) == 1

    def test_get_bit_z_out_of_range(self):
        with pytest.raises(IndexError):
            KeccakState().get_bit(0, 0, 64)


class TestPartitions:
    def test_plane_contains_row(self):
        state = indexed_state()
        assert state.plane(3) == (30, 31, 32, 33, 34)

    def test_sheet_contains_column(self):
        state = indexed_state()
        assert state.sheet(2) == (2, 12, 22, 32, 42)

    def test_slice_extracts_bit_matrix(self):
        state = KeccakState()
        state[1, 2] = 1 << 5
        matrix = state.slice(5)
        assert matrix[2][1] == 1
        assert sum(sum(row) for row in matrix) == 1

    def test_set_plane(self):
        state = KeccakState()
        state.set_plane(1, [9, 8, 7, 6, 5])
        assert state.plane(1) == (9, 8, 7, 6, 5)
        assert state.plane(0) == (0,) * 5

    def test_set_plane_wrong_length(self):
        with pytest.raises(ValueError):
            KeccakState().set_plane(0, [1, 2, 3])

    def test_plane_index_out_of_range(self):
        with pytest.raises(IndexError):
            KeccakState().plane(5)

    def test_sheet_index_out_of_range(self):
        with pytest.raises(IndexError):
            KeccakState().sheet(-1)

    def test_slice_index_out_of_range(self):
        with pytest.raises(IndexError):
            KeccakState().slice(64)

    def test_planes_cover_state(self):
        state = indexed_state()
        collected = [lane for y in range(5) for lane in state.plane(y)]
        assert tuple(collected) == state.lanes


class TestSerialization:
    def test_round_trip(self, random_state):
        assert KeccakState.from_bytes(random_state.to_bytes()) == random_state

    def test_to_bytes_length(self):
        assert len(KeccakState().to_bytes()) == 200

    def test_lane_zero_is_first_eight_bytes_little_endian(self):
        state = KeccakState()
        state[0, 0] = 0x0102030405060708
        assert state.to_bytes()[:8] == bytes(
            [8, 7, 6, 5, 4, 3, 2, 1]
        )

    def test_from_bytes_wrong_length(self):
        with pytest.raises(ValueError, match="200"):
            KeccakState.from_bytes(b"\x00" * 199)

    def test_xor_bytes_affects_prefix_only(self):
        state = KeccakState()
        state.xor_bytes(b"\xff" * 8)
        assert state[0, 0] == (1 << 64) - 1
        assert state[1, 0] == 0

    def test_xor_bytes_is_involution(self, random_state):
        data = bytes(range(136))
        snapshot = random_state.copy()
        random_state.xor_bytes(data)
        random_state.xor_bytes(data)
        assert random_state == snapshot

    def test_xor_bytes_too_long(self):
        with pytest.raises(ValueError):
            KeccakState().xor_bytes(b"\x00" * 201)

    def test_xor_bytes_partial_lane(self):
        state = KeccakState()
        state.xor_bytes(b"\x00\x00\x00\x00\x00\x00\x00\x00\xff")
        assert state[0, 0] == 0
        assert state[1, 0] == 0xFF


def bytewise_xor(state, data):
    """The byte-at-a-time absorb that ``xor_bytes`` must equal."""
    lanes = list(state.lanes)
    for i, byte in enumerate(bytes(data)):
        lanes[i // 8] ^= byte << (8 * (i % 8))
    return KeccakState(lanes)


class TestXorBytesLaneWise:
    """Word-at-a-time ``xor_bytes`` against the byte-wise definition."""

    @pytest.mark.parametrize("kind", (bytes, bytearray, memoryview))
    def test_every_length_matches_bytewise(self, kind, rng):
        for length in range(201):
            state = KeccakState([rng.getrandbits(64) for _ in range(25)])
            data = rng.randbytes(length)
            expected = bytewise_xor(state, data)
            state.xor_bytes(kind(data))
            assert state == expected, length

    def test_memoryview_slice_of_a_larger_buffer(self, rng):
        buffer = rng.randbytes(400)
        state = KeccakState([rng.getrandbits(64) for _ in range(25)])
        expected = bytewise_xor(state, buffer[3:140])
        state.xor_bytes(memoryview(buffer)[3:140])
        assert state == expected

    @pytest.mark.parametrize("kind", (bytes, bytearray, memoryview))
    def test_too_long_still_raises(self, kind):
        with pytest.raises(ValueError, match="200-byte"):
            KeccakState().xor_bytes(kind(bytes(201)))


class TestEqualityAndCopy:
    def test_copy_is_independent(self, random_state):
        clone = random_state.copy()
        clone[0, 0] ^= 1
        assert clone != random_state

    def test_equality(self):
        assert KeccakState(list(range(25))) == KeccakState(list(range(25)))

    def test_inequality_with_other_types(self):
        assert KeccakState() != 42

    def test_hashable(self):
        a = KeccakState(list(range(25)))
        b = KeccakState(list(range(25)))
        assert len({a, b}) == 1

    def test_iteration_yields_lanes(self):
        state = indexed_state()
        assert list(state) == list(state.lanes)

    def test_repr_contains_all_planes(self):
        text = repr(indexed_state())
        for y in range(5):
            assert f"y={y}" in text
