"""Inner-loop kernels over numpy arrays, written as slice-wise ufunc calls."""

import numpy as np

__all__ = [
    "active_backend",
    "combine_rotated",
    "tile_periodic",
]


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def combine_rotated(op: np.ufunc, out: np.ndarray, src: np.ndarray, bits: np.ndarray,
                    shift: int) -> None:
    """``out = op(src, roll(bits, shift))`` for a binary ufunc ``op`` (OR on
    bitmaps, min on tables) and ``0 <= shift < len(bits)``; ``src`` may be
    ``out`` itself."""
    k = bits.shape[0]
    op(src[shift:], bits[: k - shift], out=out[shift:])
    op(src[:shift], bits[k - shift:], out=out[:shift])


def tile_periodic(bits: np.ndarray, length: int) -> np.ndarray:
    """Indicator of a period-``len(bits)`` set on ``[0, length)``, for
    ``len(bits) >= 1``, in one new array: the filled prefix is copied onto
    the rest, doubling each time.  (``np.resize`` concatenates a tuple of
    ``⌈length/len(bits)⌉`` references to ``bits``, a million of them for
    one bit tiled to 10**6.)"""
    out = np.empty(length, dtype=bits.dtype)
    n = min(bits.shape[0], length)
    out[:n] = bits[:n]
    while n < length:
        step = min(n, length - n)
        out[n: n + step] = out[:step]
        n += step
    return out
