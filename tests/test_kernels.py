import numpy as np
import pytest

from buckdens import kernels
from buckdens.sets import ResidueSet, combine_rotated


def random_bits(rng, n, p=0.3):
    return (rng.random(n) < p).astype(np.uint8)


class TestKernelsAgreeWithReferences:
    def test_combine_rotated_is_or_with_np_roll(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(1, 3000))
            shift = int(rng.integers(0, k))
            bits = random_bits(rng, k)
            got = random_bits(rng, k)
            want = got | np.roll(bits, shift)
            combine_rotated(got, bits, shift)
            assert np.array_equal(got, want)

    def test_edge_shifts(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        out = np.zeros(4, dtype=np.uint8)
        combine_rotated(out, bits, 0)
        assert out.tolist() == [1, 0, 1, 1]

    def test_active_backend_is_numpy(self):
        assert kernels.active_backend() == "numpy"


class TestTilePeriodic:
    # ResidueSet.window, the 0/1 indicator of a set tiled to any length
    def test_exact_multiple(self):
        assert ResidueSet(2, [0]).window(6).tolist() == [1, 0, 1, 0, 1, 0]

    def test_truncation(self):
        assert ResidueSet(3, [0]).window(5).tolist() == [1, 0, 0, 1, 0]

    def test_returns_a_copy(self):
        p = ResidueSet(1, [0])
        for length in (1, 3):
            p.window(length)[0] = 0
            assert 0 in p

    @pytest.mark.parametrize("period", [1, 2, 7, 64])
    def test_matches_np_tile_below_at_and_above_multiples(self, period):
        bits = random_bits(np.random.default_rng(period), period)
        p = ResidueSet.from_bits(bits)
        for length in range(0, 4 * period + 2):
            reps = -(-length // period)
            assert np.array_equal(p.window(length), np.tile(bits, reps)[:length])
            assert p.window(length).dtype == np.uint8
