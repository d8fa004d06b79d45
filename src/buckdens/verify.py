"""End-to-end empirical validation: materialize finite windows of A and
A+B from a tower, compare empirical frequencies against the exact
certificates, and cross-check with asymptotic/Banach/logarithmic proxies.

Verify reads A only as its classes, which each level's k_n and h_n give
(``construction.a_classes``), and never reads a level's H: the report's
|H| is densityA·n!, which ``check_claimA`` has checked.  A's own windows
fill its classes, and the exceptional one the class of h_N mod N!.  For
the A + B windows, within each residue class modulo the largest class
modulus up to the window, A + B is everything from one threshold on,
taken up the class moduli from B's first members, and a class whose
modulus passes the window adds its one member plus B.  The proxies are
float-side; the certified rationals come from :mod:`buckdens.construction`
and are never touched.
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
    a_classes,
    check_claimA,
    count_A,
    sum_bounds,
)
from .density import check_horizon, proxies
from .oracles import CoverOracle

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

    ``definite`` members are provably in A: they fill A's classes
    (``a_classes``), as beyond depth N the construction only ever removes
    elements congruent to h_N mod N!.  ``exceptional`` marks that single
    undecided class.
    """
    _period_length(t, horizon)
    definite = np.zeros(horizon + 1, dtype=np.uint8)
    for m, c in a_classes(t):
        definite[c::m] = 1
    exceptional = np.zeros_like(definite)
    if not t.trivial:
        exceptional[t.top.h::t.top.modulus] = 1
    return definite, exceptional


def sumset_window(classes: list[tuple[int, int]], b_values: np.ndarray,
                  horizon: int) -> np.ndarray:
    """Indicator on [0, horizon] of A + B, for A the union of the classes
    c + m·N, ``(m, c)`` in ``classes``, each modulus a divisor of every
    larger one (as the tower's n! are); ``b_values`` in any order.

    Within a class r mod m, (c + m·N) + B is every x ≡ r from
    c + F_m[(r − c) mod m] on, F_m[s] the least member of B ∩ [0, horizon]
    ≡ s (mod m), the min-fold of F_M.  So within each class r mod M, the
    largest modulus up to the horizon, A + B is every x ≡ r from t_r on:
    the thresholds are lifted up the moduli, from m to m' as the least
    x ≡ r' (mod m') at or above t, t + ((r' − t) mod m'), and lowered by
    the classes at m'.  A class whose modulus passes the horizon has at
    most its c in the window and adds c + (B ∩ [0, horizon − c]).  No
    table is longer than min(M, horizon + 1), or than M + √(horizon + 1)
    when M is shorter than √(horizon + 1) and the rows are widened.
    """
    out = np.zeros(horizon + 1, dtype=np.uint8)
    # int32 holds every horizon within the enumeration budget; minimum.at
    # takes its fast path only when the values match the table's dtype
    b_values = b_values[b_values <= horizon].astype(np.int32)
    moduli = sorted({m for m, _ in classes if m <= horizon})
    if moduli:
        big = moduli[-1]
        first = _first_members(b_values, big, horizon)
        threshold = np.full(1, 2 * horizon + 2, dtype=np.int32)   # nothing mod 1
        for m in moduli:
            threshold = _lifted(threshold, m)
            least = first if m == big else first.reshape(big // m, m).min(axis=0)
            for c in (c for n, c in classes if n == m):
                shifted = np.roll(least, c)
                shifted += c
                np.minimum(threshold, shifted, out=threshold)
        # rows of at least √(horizon + 1) residues keep the loop over rows short
        width = big * -(-math.isqrt(horizon + 1) // big)
        if width > big:
            threshold = _lifted(threshold, width)
        # x = q*width + r is covered iff q*width >= t_r - r
        threshold -= np.arange(width, dtype=np.int32)
        full, rest = divmod(horizon + 1, width)
        np.greater_equal(np.arange(0, full * width, width, dtype=np.int32)[:, None], threshold,
                         out=out[: full * width].reshape(full, width))
        np.greater_equal(full * width, threshold[:rest], out=out[full * width:])
    for m, c in classes:
        if m > horizon >= c:
            out[c + b_values[b_values <= horizon - c]] = 1
    return out


def _lifted(threshold: np.ndarray, m: int) -> np.ndarray:
    """Thresholds t mod a multiple m of their length: for each r' mod m,
    the least x ≡ r' (mod m) at or above t_{r' mod len(t)}."""
    tiled = np.tile(threshold, m // threshold.size)
    out = np.arange(m, dtype=np.int32)
    out -= tiled
    out %= m
    out += tiled
    return out


def _first_members(b_values: np.ndarray, m: int, horizon: int) -> np.ndarray:
    """F[s], the least member of B ∩ [0, horizon] ≡ s (mod m), horizon + 1
    if none, for those members ``b_values``, int32, in any order."""
    first = np.full(m, horizon + 1, dtype=np.int32)
    np.minimum.at(first, b_values % m, b_values)
    return first


def _period_length(t: Tower, horizon: int) -> int:
    """The period the Banach proxy scans over: 1 when A = N, else
    min(N!, horizon + 1).  N! is the period of A's definite part, and
    horizon + 1 serves any window on [0, horizon].

    Every window starts here, so here a horizon is refused, before B is
    enumerated: below 1 with ``ValueError``, past ``DEFAULT_ENUM_BUDGET``
    with ``ResourceLimitError``.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    check_horizon(horizon)
    return 1 if t.trivial else min(t.top.modulus, horizon + 1)


def enumerate_sumset(t: Tower, oracle: CoverOracle, horizon: int) -> tuple[int, int]:
    """Integer interval for |(A+B) ∩ [1, horizon]|.

    Exceptional memberships of A (undecided beyond the tower depth) feed the
    upper count only.
    """
    lo_cov, hi_cov, _ = _coverages(t, oracle, horizon)
    return int(np.count_nonzero(lo_cov[1:])), int(np.count_nonzero(hi_cov[1:]))


def _coverages(t: Tower, oracle: CoverOracle,
               horizon: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The A + B windows of A's definite part, its classes
    (``a_classes``), and of A_N, which adds the class of h_N, and the
    period length the proxies scan."""
    d = _period_length(t, horizon)
    classes = a_classes(t)
    b_values = oracle.enumerate(horizon)
    lo_cov = sumset_window(classes, b_values, horizon)
    # the class of h first enters the window at h
    hi_cov = (lo_cov if t.trivial or t.top.h > horizon
              else sumset_window(classes + [(t.top.modulus, t.top.h)], b_values, horizon))
    return lo_cov, hi_cov, d


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
            "size_H": int(lv.density_a * lv.modulus),
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
    d = _period_length(t, horizon)
    sb = sum_bounds(t, oracle)
    lo_cov = sumset_window(a_classes(t), oracle.enumerate(horizon), horizon)
    return CrossDensityReport(t.alpha, (sb.final.lower, sb.final.upper), _CROSS_SLACK,
                              *proxies(lo_cov, horizon, d))
