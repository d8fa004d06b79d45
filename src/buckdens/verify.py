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
from .sets import fft_cyclic_or

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

# below this many B-members the window sumset is shift-OR; beyond it, FFT
_WINDOW_SHIFT_MAX = 512


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
    if t.trivial:
        definite = np.ones(horizon + 1, dtype=np.uint8)
        return definite, np.zeros(horizon + 1, dtype=np.uint8)
    top = t.top
    in_an = kernels.tile_periodic(top.H.bits(), horizon + 1)
    marked = np.zeros(top.modulus, dtype=np.uint8)
    marked[top.h] = 1
    exceptional = kernels.tile_periodic(marked, horizon + 1)
    definite = in_an & (1 - exceptional)
    return definite, exceptional


def sumset_window(a_indicator: np.ndarray, b_values: np.ndarray, horizon: int) -> np.ndarray:
    """Indicator on [0, horizon] of {a + b : a in A-window, b in B-window}."""
    out = np.zeros(horizon + 1, dtype=np.uint8)
    b_values = b_values[b_values <= horizon]
    if b_values.size == 0 or not a_indicator.any():
        return out
    if b_values.size <= _WINDOW_SHIFT_MAX:
        a_view = a_indicator[: horizon + 1]
        for b in b_values:
            kernels.or_shifted_clipped(out, a_view, int(b))
        return out
    # zero-padded to 2n >= 2n - 1, the cyclic convolution is the linear one
    n = horizon + 1
    a_pad = np.zeros(2 * n, dtype=np.uint8)
    a_pad[:n] = a_indicator[:n]
    b_pad = np.zeros(2 * n, dtype=np.uint8)
    b_pad[b_values] = 1
    return fft_cyclic_or(a_pad, b_pad)[:n]


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
    definite, exceptional = a_window(t, horizon)
    lo_cov = sumset_window(definite, b_values, horizon)
    if exceptional.any():
        hi_cov = sumset_window(definite | exceptional, b_values, horizon)
    else:
        hi_cov = lo_cov
    return lo_cov, hi_cov


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
                   allow_deep: bool = False,
                   tower: Tower | None = None) -> DensityReport:
    """Build (or reuse) a tower, re-check every certificate, and compare
    empirical A+B frequencies against the certified interval at a grid of
    horizons.  Raises CertificateError if any exact certificate fails."""
    if tower is None:
        tower = construct(oracle, alpha, depth, allow_deep=allow_deep)
    claim = check_claimA(tower, oracle)
    if not claim.ok:
        raise CertificateError(
            f"certificate violation at level {claim.first_violation()}")

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
        asym = empirical_asymptotic(lo_cov, t_val)
        window = max(1, t_val // 10)
        ban = empirical_banach(lo_cov, window, t_val)
        log = empirical_logarithmic(lo_cov, t_val)
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
    passed: bool

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


def cross_density_check(t: Tower, oracle: CoverOracle, horizon: int, *,
                        window: int | None = None,
                        slack: float = 0.03) -> CrossDensityReport:
    """Evaluate all three empirical proxies on the realized A+B window and
    test that each lies within the certified interval widened by ``slack``.

    Periodic-set structure makes all the proxies agree in the limit; this is
    the finite-scale reflection of uniformity across quasi-densities.
    """
    sb = sum_bounds(t, oracle)
    check_horizon(horizon)
    lo_cov = sumset_window(a_window(t, horizon)[0], oracle.enumerate(horizon), horizon)
    if window is None:
        window = max(1, horizon // 10)
    asym = empirical_asymptotic(lo_cov, horizon)
    ban = empirical_banach(lo_cov, window, horizon)
    log = empirical_logarithmic(lo_cov, horizon)
    lo = float(sb.final.lower) - slack
    hi = float(sb.final.upper) + slack
    values = [asym[0], asym[1], ban, log]
    passed = all(lo <= v <= hi for v in values)
    return CrossDensityReport(
        alpha=t.alpha, interval=(sb.final.lower, sb.final.upper), slack=slack,
        asymptotic=asym, banach=ban, logarithmic=log, passed=passed)
