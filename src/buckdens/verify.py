"""End-to-end empirical validation: materialize finite windows of A and
A+B from a tower, compare empirical frequencies against the exact
certificates, and cross-check with asymptotic/Banach/logarithmic proxies.

Everything here is float-side; the certified rationals come from
:mod:`buckdens.construction` and are never touched.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import kernels
from .construction import (
    CertificateError,
    Tower,
    a_bounds,
    check_claimA,
    count_A,
    construct,
    sum_bounds,
)
from .density import (
    check_horizon,
    empirical_asymptotic,
    empirical_banach,
    empirical_logarithmic,
)
from .oracles import CoverOracle
from .sets import PeriodicSet, ResidueSet, sumset_mod

__all__ = [
    "a_window",
    "enumerate_sumset",
    "sumset_window",
    "DensityReport",
    "theorem_report",
    "CrossDensityReport",
    "cross_density_check",
    "sampling_slack",
]

_CROSS_SLACK = 0.03  # widening of the certified interval for the proxies


def sampling_slack(horizon: int) -> float:
    """Pragmatic finite-horizon fluctuation buffer, reported separately from
    the certified eps."""
    return 10.0 / math.sqrt(horizon)


def a_window(t: Tower, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """(definite, exceptional) uint8 indicators of A on [0, horizon].

    ``definite`` members are provably in A: beyond depth N the construction
    only ever removes elements congruent to h_N mod N!.  ``exceptional``
    marks that single undecided class.
    """
    lower, upper = _periods(t)
    return (kernels.tile_periodic(lower, horizon + 1),
            kernels.tile_periodic(upper - lower, horizon + 1))


def sumset_window(period_bits: np.ndarray, b_values: np.ndarray, horizon: int) -> np.ndarray:
    """Indicator on [0, horizon] of A + B, with A = {a >= 0 : P[a mod M]}
    for the length-M bitmap P = ``period_bits``.

    x ≡ r (mod M) lies in A + B iff x >= t_r, the least first member f_c
    of a class c of B with P[r − c].  Classes are scanned in ascending f_c
    over the residues below n = min(M, horizon + 1) reachable mod M, or, if
    2n <= M, reachable from P[:n] mod a power of two k >= 2n (no sum wraps).
    """
    m = period_bits.shape[0]
    n = min(m, horizon + 1)
    out = np.zeros(horizon + 1, dtype=np.uint8)
    b_values = np.sort(b_values[b_values <= horizon])
    classes, first = np.unique(b_values % m, return_index=True)
    k = m if 2 * n > m else 1 << (2 * n - 1).bit_length()
    p_bits = period_bits if k == m else np.pad(period_bits[:n], (0, k - n))
    reach = sumset_mod(PeriodicSet(k, ResidueSet.from_bits(p_bits)),
                       ResidueSet(k, classes))
    unresolved = np.flatnonzero(reach.residues.bits()[:n])
    threshold = np.full(n, horizon + 1, dtype=np.int64)
    for i in np.argsort(first):
        hit = period_bits[(unresolved - classes[i]) % m].astype(bool)
        threshold[unresolved[hit]] = b_values[first[i]]
        unresolved = unresolved[~hit]
        if unresolved.size == 0:
            break
    # x = q*n + r is covered iff q*n >= t_r - r (and q = 0 whenever n < M)
    threshold -= np.arange(n)
    full, rest = divmod(horizon + 1, n)
    np.greater_equal(np.arange(full)[:, None] * n, threshold,
                     out=out[: full * n].reshape(full, n))
    np.greater_equal(full * n, threshold[:rest], out=out[full * n:])
    return out


def _periods(t: Tower) -> tuple[np.ndarray, np.ndarray]:
    """One period of the definite part of A and of A_N: H∖{h} and H at the
    top level, or ``[1]`` for both when A = N."""
    if t.trivial:
        return np.ones(1, dtype=np.uint8), np.ones(1, dtype=np.uint8)
    top = t.top
    return top.H.discard(top.h).bits(), top.H.bits()


def enumerate_sumset(t: Tower, oracle: CoverOracle, horizon: int) -> tuple[int, int]:
    """Integer interval for |(A+B) ∩ [1, horizon]|.

    Exceptional memberships of A (undecided beyond the tower depth) feed the
    upper count only.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    lo_cov, hi_cov = _coverages(t, oracle, horizon)
    return int(np.count_nonzero(lo_cov[1:])), int(np.count_nonzero(hi_cov[1:]))


def _coverages(t: Tower, oracle: CoverOracle, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    check_horizon(horizon)
    b_values = oracle.enumerate(horizon)
    lower, upper = _periods(t)
    lo_cov = sumset_window(lower, b_values, horizon)
    # the two periods differ only at h, whose class first enters the window at h
    if t.trivial or t.top.h > horizon:
        return lo_cov, lo_cov
    return lo_cov, sumset_window(upper, b_values, horizon)


def _proxies(cov: np.ndarray, horizon: int, window: int) -> tuple[tuple[float, float], float, float]:
    """Asymptotic (min, max), Banach and logarithmic proxies of a window."""
    return (empirical_asymptotic(cov, horizon),
            empirical_banach(cov, window, horizon),
            empirical_logarithmic(cov, horizon))


# ---------------------------------------------------------------------------
# consolidated report

@dataclass
class EmpiricalRow:
    horizon: int
    count_a: tuple[int, int]
    count_sum: tuple[int, int]
    freq: tuple[float, float]
    asymptotic: tuple[float, float]
    banach: float
    logarithmic: float
    budget: float
    passed: bool


@dataclass
class DensityReport:
    alpha: Fraction
    oracle: str
    exact: bool
    depth: int
    level_rows: list[dict]                 # n, size_H, h, k, densityA, L, U, eps
    interval_a: tuple[Fraction, Fraction]
    interval_sum: tuple[Fraction, Fraction]
    eps_final: Fraction
    rows: list[EmpiricalRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def cross_density(self) -> "CrossDensityReport":
        """``cross_density_check`` at the longest horizon, read from its row."""
        r = max(self.rows, key=lambda row: row.horizon)
        return CrossDensityReport(self.alpha, self.interval_sum, _CROSS_SLACK,
                                  r.asymptotic, r.banach, r.logarithmic)

    def to_json_dict(self) -> dict:
        return {
            "schema": "buckdens-report-v1",
            "alpha": str(self.alpha),
            "oracle": self.oracle,
            "exact": self.exact,
            "depth": self.depth,
            "verdict": "PASS" if self.passed else "FAIL",
            "interval_a": [str(self.interval_a[0]), str(self.interval_a[1])],
            "interval_sum": [str(self.interval_sum[0]), str(self.interval_sum[1])],
            "eps_final": str(self.eps_final),
            "levels": self.level_rows,
            "empirical": [
                {
                    "T": r.horizon,
                    "count_A": list(r.count_a),
                    "count_sum": list(r.count_sum),
                    "freq_lo": r.freq[0],
                    "freq_hi": r.freq[1],
                    "asymptotic_min": r.asymptotic[0],
                    "asymptotic_max": r.asymptotic[1],
                    "banach": r.banach,
                    "logarithmic": r.logarithmic,
                    "budget": r.budget,
                    "verdict": "PASS" if r.passed else "FAIL",
                }
                for r in self.rows
            ],
        }

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["kind", "n", "size_H", "h", "k", "densityA", "L", "U", "eps"])
            for row in self.level_rows:
                w.writerow(["level", row["n"], row["size_H"], row["h"],
                            row["k"], row["densityA"], row["L"], row["U"], row["eps"]])
            w.writerow([])
            w.writerow(["kind", "T", "count_A_lo", "count_A_hi", "count_sum_lo",
                        "count_sum_hi", "freq_lo", "freq_hi", "budget", "verdict"])
            for r in self.rows:
                w.writerow(["horizon", r.horizon, r.count_a[0], r.count_a[1],
                            r.count_sum[0], r.count_sum[1],
                            f"{r.freq[0]:.9f}", f"{r.freq[1]:.9f}",
                            f"{r.budget:.9f}", "PASS" if r.passed else "FAIL"])


def _level_rows(t: Tower, oracle: CoverOracle) -> list[dict]:
    sb = sum_bounds(t, oracle)
    rows = []
    for lv, (_, lower, upper, eps) in zip(t.levels, sb.per_level):
        rows.append({
            "n": lv.n,
            "size_H": len(lv.H),
            "h": lv.h,
            "k": lv.k_chosen,
            "densityA": str(lv.density_a),
            "L": str(lower),
            "U": str(upper),
            "eps": str(eps),
        })
    return rows


def theorem_report(oracle: CoverOracle, alpha, depth: int, horizon: int, *,
                   t_grid: list[int] | None = None,
                   tower: Tower | None = None) -> DensityReport:
    """Build (or reuse) a tower, re-check every certificate, and compare
    empirical A+B frequencies against the certified interval at a grid of
    horizons.  Raises CertificateError if any exact certificate fails."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if tower is None:
        tower = construct(oracle, alpha, depth)
    claim = check_claimA(tower, oracle)
    if not claim.ok:
        raise CertificateError(f"certificate FAILED at level {claim.first_violation()}")

    ab = a_bounds(tower)
    sb = sum_bounds(tower, oracle)
    if tower.trivial:
        eps_final = Fraction(0)
        tail = 0.0
    else:
        eps_final = sb.per_level[-1][3]
        tail = 2.0 / math.factorial(tower.top.n + 1)

    if t_grid is None:
        t_grid = sorted({max(1, horizon // 100), max(1, horizon // 10), horizon})

    report = DensityReport(
        alpha=tower.alpha, oracle=oracle.name, exact=oracle.exact,
        depth=depth, level_rows=_level_rows(tower, oracle),
        interval_a=(ab.lower, ab.upper),
        interval_sum=(sb.final.lower, sb.final.upper),
        eps_final=eps_final,
    )
    lo_cert = float(sb.final.lower)
    hi_cert = float(sb.final.upper)
    # coverage of [0, t] is a prefix of coverage of [0, max(t_grid)]
    lo_all, hi_all = _coverages(tower, oracle, max(t_grid, default=1))
    for t_val in t_grid:
        lo_cov, hi_cov = lo_all[: t_val + 1], hi_all[: t_val + 1]
        c_lo = int(np.count_nonzero(lo_cov[1:]))
        c_hi = int(np.count_nonzero(hi_cov[1:]))
        freq = (c_lo / t_val, c_hi / t_val)
        budget = float(eps_final) + tail + sampling_slack(t_val)
        passed = freq[0] <= hi_cert + budget and freq[1] >= lo_cert - budget
        asym, ban, log = _proxies(lo_cov, t_val, max(1, t_val // 10))
        report.rows.append(EmpiricalRow(
            horizon=t_val,
            count_a=count_A(tower, t_val),
            count_sum=(c_lo, c_hi),
            freq=freq,
            asymptotic=asym,
            banach=ban,
            logarithmic=log,
            budget=budget,
            passed=passed,
        ))
    return report


@dataclass
class CrossDensityReport:
    alpha: Fraction
    interval: tuple[Fraction, Fraction]
    slack: float
    asymptotic: tuple[float, float]
    banach: float
    logarithmic: float

    @property
    def passed(self) -> bool:
        lo = float(self.interval[0]) - self.slack
        hi = float(self.interval[1]) + self.slack
        return all(lo <= v <= hi for v in (*self.asymptotic, self.banach, self.logarithmic))

    def to_json_dict(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "interval": [str(self.interval[0]), str(self.interval[1])],
            "slack": self.slack,
            "asymptotic_min": self.asymptotic[0],
            "asymptotic_max": self.asymptotic[1],
            "banach": self.banach,
            "logarithmic": self.logarithmic,
            "verdict": "PASS" if self.passed else "FAIL",
        }


def cross_density_check(t: Tower, oracle: CoverOracle, horizon: int) -> CrossDensityReport:
    """Evaluate all three empirical proxies on the realized A+B window and
    test that each lies within the certified interval widened by
    ``_CROSS_SLACK``.

    Periodic-set structure makes all the proxies agree in the limit; this is
    the finite-scale reflection of uniformity across quasi-densities.
    """
    sb = sum_bounds(t, oracle)
    check_horizon(horizon)
    lo_cov = sumset_window(_periods(t)[0], oracle.enumerate(horizon), horizon)
    return CrossDensityReport(t.alpha, (sb.final.lower, sb.final.upper), _CROSS_SLACK,
                              *_proxies(lo_cov, horizon, max(1, horizon // 10)))
