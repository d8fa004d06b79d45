"""Plain full-scan forms of the empirical proxies and of the first-member
table of ``verify.sumset_window``.

Each builds the whole int64 running count of the window, or sorts B, the
simplest way; the package's forms read less and must give the same float
bits.
"""

import math

import numpy as np


def asymptotic(ind, horizon, grid=60):
    counts = np.cumsum(ind[: horizon + 1].astype(np.int64))
    counts -= ind[0]  # counts[n] = |X ∩ [1, n]|
    lo_n = max(1, horizon // 100)
    ns = np.unique(np.geomspace(lo_n, horizon, num=grid).astype(np.int64))
    ratios = counts[ns] / ns
    return float(ratios.min()), float(ratios.max())


def banach(ind, window, horizon):
    counts = np.cumsum(ind[: horizon + 1].astype(np.int64))
    counts -= ind[0]
    # window [i+1, i+window] for i in [0, horizon-window]
    best = int(np.max(counts[window:] - counts[: horizon + 1 - window]))
    return best / window


def logarithmic(ind, horizon):
    """The golden summation order: past 10**4 terms, the first ceil(n/2)
    terms and the rest are summed apart, each by one np.dot."""
    start = math.isqrt(horizon) + 1 if horizon > 4 else 1
    x = ind[start: horizon + 1].astype(np.float64)
    weights = 1.0 / np.arange(start, horizon + 1)
    n = len(x)
    if n <= 10**4:
        return float(np.dot(x, weights) / weights.sum())
    half = (n + 1) // 2
    total = np.dot(x[:half], weights[:half]) + np.dot(x[half:], weights[half:])
    return float(total / weights.sum())


def first_member_table(b_values, m, horizon):
    """least[c] = the least member of B ∩ [0, horizon] in class c mod m,
    horizon + 1 if none."""
    b_values = np.sort(b_values[b_values <= horizon])
    classes, first = np.unique(b_values % m, return_index=True)
    least = np.full(m, horizon + 1, dtype=np.int32)
    least[classes] = b_values[first]
    return least
