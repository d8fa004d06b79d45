"""Density taxonomy: exact Buck-style upper density on periodic sets and
finite sets, conjugate/lower values, and float-valued empirical estimators
used only for verification.

The exact path works entirely in :class:`fractions.Fraction`.  Empirical
estimators return binary64 floats and never feed back into anything exact.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .sets import (
    PeriodicSet,
    ResourceLimitError,
    affine,
    divisors,
    dumps_periodic,
    intersect,
    make_periodic,
    union,
)

__all__ = [
    "UpperDensityFn",
    "DensityInterval",
    "buck_upper_periodic",
    "buck_upper_finite",
    "conjugate",
    "in_domain",
    "DEFAULT_ENUM_BUDGET",
    "check_horizon",
    "periodic_indicator",
    "empirical_asymptotic",
    "empirical_banach",
    "empirical_logarithmic",
    "axiom_suite",
    "AxiomReport",
    "BUCK",
]


@dataclass(frozen=True)
class UpperDensityFn:
    """An upper-density evaluator on periodic sets, with metadata."""

    name: str
    exact: bool
    eval_periodic: Callable[[PeriodicSet], Fraction]


@dataclass(frozen=True)
class DensityInterval:
    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper <= 1):
            raise ValueError(f"bad density interval [{self.lower}, {self.upper}]")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


def buck_upper_periodic(p: PeriodicSet) -> Fraction:
    """Upper Buck density of a finite union of APs: exactly |H|/k.

    The covering infimum is attained by the set itself, since any finite
    union of APs containing it has at least this asymptotic density.
    """
    return p.density()


def buck_upper_finite(s: Iterable[int]) -> Fraction:
    """Upper Buck density of a finite set (always 0: cover by m*N + (S mod m)
    with m arbitrarily large)."""
    for x in s:
        if x < 0:
            raise ValueError("finite sets must contain non-negative integers")
    return Fraction(0)


def conjugate(value_of_complement: Fraction) -> Fraction:
    """Lower density of X from the upper density of N \\ X."""
    if not 0 <= value_of_complement <= 1:
        raise ValueError(f"density {value_of_complement} outside [0, 1]")
    return 1 - value_of_complement


def in_domain(lower: Fraction, upper: Fraction) -> bool:
    """True iff lower and upper densities agree exactly."""
    if lower > upper:
        raise ValueError("lower density exceeds upper density")
    return lower == upper


# ---------------------------------------------------------------------------
# empirical estimators (float-only, verification side)

# the longest window [0, horizon] that verification materializes
DEFAULT_ENUM_BUDGET = 10_000_000


def check_horizon(horizon: int) -> None:
    """Refuse a horizon whose windows would exceed ``DEFAULT_ENUM_BUDGET``."""
    if horizon > DEFAULT_ENUM_BUDGET:
        raise ResourceLimitError(
            f"horizon {horizon} exceeds the enumeration budget {DEFAULT_ENUM_BUDGET}")


def periodic_indicator(p: PeriodicSet, horizon: int) -> np.ndarray:
    """0/1 uint8 array over [0, horizon]; index i says whether i is a member."""
    from .kernels import tile_periodic
    check_horizon(horizon)
    return tile_periodic(p.residues.bits(), horizon + 1)


def _check_indicator(ind: np.ndarray, horizon: int) -> None:
    if ind.shape[0] < horizon + 1:
        raise ValueError("indicator shorter than horizon")


def empirical_asymptotic(ind: np.ndarray, horizon: int, grid: int = 60) -> tuple[float, float]:
    """(min, max) of |X ∩ [1, n]| / n over a log grid of n in [horizon/100, horizon].

    Finite-horizon proxies for liminf/limsup of the counting ratio.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    _check_indicator(ind, horizon)
    counts = np.cumsum(ind[: horizon + 1].astype(np.int64))
    counts -= ind[0]  # counts[n] = |X ∩ [1, n]|
    lo_n = max(1, horizon // 100)
    ns = np.unique(np.geomspace(lo_n, horizon, num=grid).astype(np.int64))
    ratios = counts[ns] / ns
    return float(ratios.min()), float(ratios.max())


def empirical_banach(ind: np.ndarray, window: int, horizon: int) -> float:
    """Max over length-``window`` windows inside [1, horizon] of count/window."""
    if not 1 <= window <= horizon:
        raise ValueError("need 1 <= window <= horizon")
    _check_indicator(ind, horizon)
    counts = np.cumsum(ind[: horizon + 1].astype(np.int64))
    counts -= ind[0]
    # window [i+1, i+window] for i in [0, horizon-window]
    best = int(np.max(counts[window:] - counts[: horizon + 1 - window]))
    return best / window


def empirical_logarithmic(ind: np.ndarray, horizon: int) -> float:
    """Weighted frequency with weights 1/i, normalized by the harmonic sum.

    Evaluated on (sqrt(horizon), horizon]: dropping a prefix leaves the
    logarithmic density unchanged in the limit but kills the small-i
    transient, which otherwise decays only like 1/log(horizon).
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    _check_indicator(ind, horizon)
    start = math.isqrt(horizon) + 1 if horizon > 4 else 1
    weights = 1.0 / np.arange(start, horizon + 1)
    return float(np.dot(ind[start: horizon + 1].astype(np.float64), weights) / weights.sum())


# ---------------------------------------------------------------------------
# axiom conformance suite

_AXIOMS = ("F1", "F2", "F3", "F4")

_SUITE_MAX_MODULUS = 10_000


@dataclass
class AxiomResult:
    axiom: str
    samples: int = 0
    passed: bool = True
    counterexample: dict | None = None


@dataclass
class AxiomReport:
    evaluator: str
    seed: int
    results: dict[str, AxiomResult] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def to_json(self) -> str:
        doc = {
            "evaluator": self.evaluator,
            "seed": self.seed,
            "verdict": "PASS" if self.all_passed else "FAIL",
            "axioms": [
                {
                    "axiom": r.axiom,
                    "samples": r.samples,
                    "verdict": "PASS" if r.passed else "FAIL",
                    "counterexample": r.counterexample,
                }
                for r in self.results.values()
            ],
        }
        return json.dumps(doc, indent=2)


def _random_residue_subset(rng: random.Random, k: int) -> list[int]:
    # geometric mix of sparse and dense subsets
    target = rng.choice([1, 2, max(1, k // 100), max(1, k // 10), max(1, k // 2)])
    target = min(target, k)
    return [rng.randrange(k) for _ in range(target)]


def _random_periodic(rng: random.Random, max_modulus: int = _SUITE_MAX_MODULUS) -> PeriodicSet:
    k = rng.randrange(1, max_modulus + 1)
    return make_periodic(k, _random_residue_subset(rng, k))


def axiom_suite(d: UpperDensityFn, samples: int = 1000, seed: int = 0) -> AxiomReport:
    """Check F1 (normalization), F2 (monotonicity), F3 (subadditivity) and
    F4 (affine scaling) on pseudo-random periodic sets with moduli <= 10^4.

    F3 pairs are sampled on divisors of a shared modulus so the rebase
    stays within the 10^4 budget; F4 uses small scale factors so the exact
    equality ``d(k*X + h) = d(X)/k`` is testable directly.
    """
    rng = random.Random(seed)
    report = AxiomReport(evaluator=d.name, seed=seed)
    for ax in _AXIOMS:
        report.results[ax] = AxiomResult(axiom=ax)

    full = make_periodic(1, [0])
    if d.eval_periodic(full) != 1:
        report.results["F1"].passed = False
        report.results["F1"].counterexample = {"set": dumps_periodic(full),
                                               "value": str(d.eval_periodic(full))}

    for _ in range(samples):
        # F1: d(X) <= d(N) = 1
        p = _random_periodic(rng)
        r = report.results["F1"]
        r.samples += 1
        v = d.eval_periodic(p)
        if r.passed and not (0 <= v <= 1):
            r.passed = False
            r.counterexample = {"set": dumps_periodic(p), "value": str(v)}

        # F2: X ⊆ Y implies d(X) <= d(Y)
        r = report.results["F2"]
        r.samples += 1
        sub = p
        sup = union(p, make_periodic(p.modulus, _random_residue_subset(rng, p.modulus)))
        if r.passed and d.eval_periodic(sub) > d.eval_periodic(sup):
            r.passed = False
            r.counterexample = {"subset": dumps_periodic(sub), "superset": dumps_periodic(sup)}

        # F3: d(X ∪ Y) <= d(X) + d(Y), equality when disjoint
        r = report.results["F3"]
        r.samples += 1
        k = rng.randrange(2, _SUITE_MAX_MODULUS + 1)
        divs = divisors(k)
        ka = rng.choice(divs)
        kb = rng.choice(divs)
        pa = make_periodic(ka, _random_residue_subset(rng, ka))
        pb = make_periodic(kb, _random_residue_subset(rng, kb))
        u = union(pa, pb)
        va, vb, vu = d.eval_periodic(pa), d.eval_periodic(pb), d.eval_periodic(u)
        ok = vu <= va + vb
        if ok and intersect(pa, pb).is_empty():
            ok = vu == va + vb
        if r.passed and not ok:
            r.passed = False
            r.counterexample = {"x": dumps_periodic(pa), "y": dumps_periodic(pb),
                                "union": dumps_periodic(u)}

        # F4: d(k*X + h) = d(X)/k, exactly
        r = report.results["F4"]
        r.samples += 1
        scale = rng.randrange(1, 101)
        offset = rng.randrange(0, 101)
        base = make_periodic(rng.randrange(1, 101), _random_residue_subset(rng, 100))
        img = affine(base, scale, offset)
        if r.passed and d.eval_periodic(img) != d.eval_periodic(base) / scale:
            r.passed = False
            r.counterexample = {"set": dumps_periodic(base), "k": scale, "h": offset,
                                "image": dumps_periodic(img)}

    return report


BUCK = UpperDensityFn("buck", True, buck_upper_periodic)
