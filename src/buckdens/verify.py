"""End-to-end empirical validation: materialize finite windows of A and
A+B from a tower, compare empirical frequencies against the exact
certificates, and cross-check with asymptotic/Banach/logarithmic proxies.

The A + B windows come from a prefix of A's period just longer than the
window: the least member of A + B in each residue class is a min-plus sum
of that prefix with B's first members, peeled layer by layer in
:mod:`buckdens.sets`, with no convolution.  The proxies are float-side;
the certified rationals come from :mod:`buckdens.construction` and are
never touched.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .construction import (
    CertificateError,
    SumBounds,
    Tower,
    a_bounds,
    check_claimA,
    count_A,
    sum_bounds,
)
from .density import check_horizon, proxies
from .oracles import CoverOracle
from .sets import ResidueSet, min_plus_mod, naturals

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
    lower, upper = _periods(t, horizon)
    definite = lower.window(horizon + 1)
    return definite, upper.window(horizon + 1) - definite


def sumset_window(period: ResidueSet, b_values: np.ndarray, horizon: int) -> np.ndarray:
    """Indicator on [0, horizon] of A + B, with A = {a >= 0 : a mod M in P}
    for the set P = ``period`` mod M.

    x ≡ r (mod M) lies in A + B iff x >= t_r = min{F_c : r − c in P}, with
    F_c the least member of B ∩ [0, horizon] in class c (horizon + 1 if
    none): t is the min-plus sum of P and F mod M, which
    ``sets.min_plus_mod`` takes by peeling P's periodic layers.  P must
    peel (or have at most ``sets._SHIFT_MAX`` members), else
    :class:`~buckdens.sets.ResourceLimitError` is raised at any M; a
    tower period, and the prefix ``_periods`` cuts from it, always does.
    The cost follows M, so a caller with a long period and a short window
    passes a prefix of the period longer than the window, as ``_periods``
    does.  ``b_values`` may come in any order.
    """
    m = period.modulus
    n = min(m, horizon + 1)
    out = np.zeros(horizon + 1, dtype=np.uint8)
    # int32 holds every horizon within the enumeration budget; minimum.at
    # takes its fast path only when the values match the table's dtype
    b_values = b_values[b_values <= horizon].astype(np.int32)
    least = np.full(m, horizon + 1, dtype=np.int32)
    np.minimum.at(least, b_values % m, b_values)
    threshold = min_plus_mod(period, least)[:n]
    # x = q*n + r is covered iff q*n >= t_r - r (and q = 0 whenever n < M)
    threshold -= np.arange(n, dtype=np.int32)
    full, rest = divmod(horizon + 1, n)
    np.greater_equal(np.arange(full)[:, None] * n, threshold,
                     out=out[: full * n].reshape(full, n))
    np.greater_equal(full * n, threshold[:rest], out=out[full * n:])
    return out


def _periods(t: Tower, horizon: int) -> tuple[ResidueSet, ResidueSet]:
    """Periods of the definite part of A and of A_N, H∖{h} and H at the top
    level N, cut to a length d that gives the same window [0, horizon];
    ``[1]`` for both when A = N.

    Every window starts here, so here a horizon is refused, before B is
    enumerated: below 1 with ``ValueError``, past ``DEFAULT_ENUM_BUDGET``
    with ``ResourceLimitError``.

    Any d > horizon gives the same window, as only the first lift of each
    residue lies in it.  With f = n! the largest level modulus up to the
    horizon, d = min(N!, (⌊horizon/f⌋ + 1)·f), at most 2·horizon.  For
    n < N: level m + 1 removes lifts of h_m from m! on, so below
    (n + 1)! >= d, H is H_{n+1}, whose rows mod f are H_n or H_n∖{h_n},
    and the prefix peels like a level.  The upper period is H's prefix,
    the lower one a copy with h cleared when h < d.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    check_horizon(horizon)
    if t.trivial:
        return naturals(), naturals()
    top = t.top
    f = max((lv.modulus for lv in t.levels if lv.modulus <= horizon), default=1)
    d = min(top.modulus, (horizon // f + 1) * f)
    upper = top.H.prefix(d)
    return (upper.discard(top.h) if top.h < d else upper), upper


def enumerate_sumset(t: Tower, oracle: CoverOracle, horizon: int) -> tuple[int, int]:
    """Integer interval for |(A+B) ∩ [1, horizon]|.

    Exceptional memberships of A (undecided beyond the tower depth) feed the
    upper count only.
    """
    lo_cov, hi_cov, _ = _coverages(t, oracle, horizon)
    return int(np.count_nonzero(lo_cov[1:])), int(np.count_nonzero(hi_cov[1:]))


def _coverages(t: Tower, oracle: CoverOracle,
               horizon: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The A + B windows of the two periods ``_periods`` cuts, and their
    length d."""
    lower, upper = _periods(t, horizon)
    b_values = oracle.enumerate(horizon)
    lo_cov = sumset_window(lower, b_values, horizon)
    # the two periods differ only at h, whose class first enters the window at h
    hi_cov = (lo_cov if t.trivial or t.top.h > horizon
              else sumset_window(upper, b_values, horizon))
    return lo_cov, hi_cov, lower.modulus


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


def _level_rows(t: Tower, sb: SumBounds) -> list[dict]:
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
                   tower: Tower) -> DensityReport:
    """Re-check every certificate of ``tower`` and compare empirical A+B
    frequencies against the certified interval at the horizons T/100, T/10
    and T.  ``alpha`` and ``depth`` must be the tower's own, its depth being
    0 when it has no levels; a call with any other raises ValueError.
    Raises CertificateError if any exact certificate fails."""
    if alpha != tower.alpha or depth != tower.depth:
        raise ValueError(f"alpha {alpha} and depth {depth} are not the tower's "
                         f"alpha {tower.alpha} and depth {tower.depth}")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    claim = check_claimA(tower, oracle)
    if not claim.ok:
        where = claim.first_violation()
        raise CertificateError(
            f"certificate FAILED at level {where}" if where is not None else
            f"certificate FAILED: a tower with no levels certifies alpha = 1, "
            f"not alpha = {tower.alpha}")

    ab = a_bounds(tower)
    sb = sum_bounds(tower, oracle)
    eps_final = Fraction(0) if tower.trivial else sb.per_level[-1][3]
    tail = float(tower.tail)

    report = DensityReport(
        alpha=tower.alpha, oracle=oracle.name, exact=oracle.exact,
        depth=tower.depth, level_rows=_level_rows(tower, sb),
        interval_a=(ab.lower, ab.upper),
        interval_sum=(sb.final.lower, sb.final.upper),
        eps_final=eps_final,
    )
    lo_cert = float(sb.final.lower)
    hi_cert = float(sb.final.upper)
    # coverage of [0, t] is a prefix of coverage of [0, horizon]
    lo_all, hi_all, period = _coverages(tower, oracle, horizon)
    for t_val in sorted({max(1, horizon // 100), max(1, horizon // 10), horizon}):
        lo_cov, hi_cov = lo_all[: t_val + 1], hi_all[: t_val + 1]
        c_lo = int(np.count_nonzero(lo_cov[1:]))
        c_hi = int(np.count_nonzero(hi_cov[1:]))
        freq = (c_lo / t_val, c_hi / t_val)
        budget = float(eps_final) + tail + sampling_slack(t_val)
        passed = freq[0] <= hi_cert + budget and freq[1] >= lo_cert - budget
        asym, ban, log = proxies(lo_cov, t_val, period)
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
    lower = _periods(t, horizon)[0]
    sb = sum_bounds(t, oracle)
    lo_cov = sumset_window(lower, oracle.enumerate(horizon), horizon)
    return CrossDensityReport(t.alpha, (sb.final.lower, sb.final.upper), _CROSS_SLACK,
                              *proxies(lo_cov, horizon, lower.modulus))
