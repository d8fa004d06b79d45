"""Inner-loop kernels over uint8 0/1 arrays, written as numpy slice ORs."""

import numpy as np

__all__ = [
    "active_backend",
    "or_rotated",
    "tile_periodic",
]


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def or_rotated(out: np.ndarray, src: np.ndarray, bits: np.ndarray, shift: int) -> None:
    """``out = src | roll(bits, shift)`` for ``0 <= shift < len(bits)``;
    ``src`` may be ``out`` itself."""
    k = bits.shape[0]
    np.bitwise_or(src[shift:], bits[: k - shift], out=out[shift:])
    np.bitwise_or(src[:shift], bits[k - shift:], out=out[:shift])


def tile_periodic(bits: np.ndarray, length: int) -> np.ndarray:
    """Indicator of a period-``len(bits)`` set on ``[0, length)``."""
    reps = -(-length // bits.shape[0])
    return np.tile(bits, reps)[:length].copy()
