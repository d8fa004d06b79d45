import numpy as np

from buckdens import kernels
from buckdens.kernels import tile_periodic


def random_bits(rng, n, p=0.3):
    return (rng.random(n) < p).astype(np.uint8)


class TestKernelsAgreeWithReferences:
    def test_or_rotated_is_or_with_np_roll(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(1, 3000))
            shift = int(rng.integers(0, k))
            bits = random_bits(rng, k)
            got = random_bits(rng, k)
            want = got | np.roll(bits, shift)
            into = np.zeros_like(got)
            kernels.or_rotated(into, got, bits, shift)
            assert np.array_equal(into, want)
            kernels.or_rotated(got, got, bits, shift)
            assert np.array_equal(got, want)

    def test_edge_shifts(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        out = np.zeros(4, dtype=np.uint8)
        kernels.or_rotated(out, out, bits, 0)
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
