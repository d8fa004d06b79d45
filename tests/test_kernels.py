import numpy as np
import pytest

from buckdens import kernels
from buckdens.sets import combine_rotated, tile_periodic


def random_bits(rng, n, p=0.3):
    return (rng.random(n) < p).astype(np.uint8)


class TestKernelsAgreeWithReferences:
    @pytest.mark.parametrize("op,draw", [
        (np.bitwise_or, random_bits),
        (np.minimum, lambda rng, n: rng.integers(0, 1000, n, dtype=np.int32)),
    ])
    def test_combine_rotated_is_op_with_np_roll(self, op, draw):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(1, 3000))
            shift = int(rng.integers(0, k))
            bits = draw(rng, k)
            got = draw(rng, k)
            want = op(got, np.roll(bits, shift))
            into = np.zeros_like(got)
            combine_rotated(op, into, got, bits, shift)
            assert np.array_equal(into, want)
            combine_rotated(op, got, got, bits, shift)
            assert np.array_equal(got, want)

    def test_edge_shifts(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        out = np.zeros(4, dtype=np.uint8)
        combine_rotated(np.bitwise_or, out, out, bits, 0)
        assert out.tolist() == [1, 0, 1, 1]

    def test_active_backend_is_numpy(self):
        assert kernels.active_backend() == "numpy"


class TestTilePeriodic:
    def test_exact_multiple(self):
        bits = np.array([1, 0], dtype=np.uint8)
        assert tile_periodic(bits, 6).tolist() == [1, 0, 1, 0, 1, 0]

    def test_truncation(self):
        bits = np.array([1, 0, 0], dtype=np.uint8)
        assert tile_periodic(bits, 5).tolist() == [1, 0, 0, 1, 0]

    def test_returns_a_copy(self):
        bits = np.array([1], dtype=np.uint8)
        tiled = tile_periodic(bits, 3)
        tiled[0] = 0
        assert bits[0] == 1

    @pytest.mark.parametrize("period", [1, 2, 7, 64])
    def test_matches_np_tile_below_at_and_above_multiples(self, period):
        bits = random_bits(np.random.default_rng(period), period)
        for length in range(0, 4 * period + 2):
            reps = -(-length // period)
            assert np.array_equal(tile_periodic(bits, length),
                                  np.tile(bits, reps)[:length])
            assert tile_periodic(bits, length).dtype == bits.dtype
