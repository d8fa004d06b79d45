"""Bitmaps built the way tower levels are: a small core tiled up layer by
layer, with a few members added at each layer, so that the kernel of
``sets.sumset_mod`` and ``sets.min_plus_mod``, handed one first, peels it
down to a core it shifts over."""

import numpy as np

from buckdens import sets

# the most members a core holds, well below sets._SHIFT_MAX
CORE_SIZE = 32
# the most members added at a layer.  Each lies outside the tiling of the
# layer below and leaves its AND-fold as it is; a removed member would
# leave up to q - 1 lifts outside, at its layer and at every layer below
ADDED = 10


def nested_operand(k, rng, density, choose=min):
    """A 0/1 bitmap of length k at about ``density`` that peels layer by
    layer, by the prime of k that ``choose`` picks each time (the smallest
    by default), down to a core of ``round(d * density)`` random members
    mod the first divisor d it reaches where that is at most
    ``CORE_SIZE``, or of ``CORE_SIZE`` members when d is 1 or a prime."""
    if k * density <= CORE_SIZE or sets.factorize(k) in ({}, {k: 1}):
        x = np.zeros(k, dtype=np.uint8)
        x[rng.choice(k, size=min(round(k * density), CORE_SIZE), replace=False)] = 1
        return x
    q = int(choose(sorted(sets.factorize(k))))
    x = np.tile(nested_operand(k // q, rng, density, choose), q)
    absent = np.flatnonzero(x == 0)
    x[rng.choice(absent, size=min(ADDED, absent.size), replace=False)] = 1
    return x
