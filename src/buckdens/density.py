"""Density taxonomy: exact Buck-style upper density on periodic sets, and
float-valued empirical estimators used only for verification.

The exact path works entirely in :class:`fractions.Fraction`, and
``parse_rational`` is the one way a written rational enters it.  Empirical
estimators return binary64 floats and never feed back into anything exact.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .sets import (
    ResidueSet,
    ResourceLimitError,
    affine,
    divisors,
    dumps_periodic,
    intersect,
    union,
)

__all__ = [
    "parse_rational",
    "UpperDensityFn",
    "DensityInterval",
    "buck_upper_periodic",
    "DEFAULT_ENUM_BUDGET",
    "check_horizon",
    "periodic_indicator",
    "empirical_asymptotic",
    "empirical_banach",
    "empirical_logarithmic",
    "default_window",
    "proxies",
    "axiom_suite",
    "AxiomReport",
    "BUCK",
]


# the largest power of ten ``parse_rational`` lets a decimal literal imply:
# Fraction builds 10**|e| exactly, and past 4300 digits Python refuses to
# print it
MAX_DECIMAL_EXPONENT = 1000
# the longest run of digits ``parse_rational`` passes on: an integer part,
# a fraction part or a p/q term.  Python refuses to convert an integer
# string of more than 4300 digits, and 10**1000 times a 2000-digit
# mantissa stays below that.
MAX_LITERAL_DIGITS = 1000
_DECIMAL = re.compile(r"[-+]?[\d_]*(?:\.([\d_]*))?(?:e([-+]?\d[\d_]*))?", re.IGNORECASE)
_DIGIT_RUN = re.compile(r"\d[\d_]*")
# how much of a refused literal an error message echoes
_SHOWN_CHARS = 40


def parse_rational(text: str) -> Fraction:
    """'p/q' or a decimal literal, converted exactly as written: ``--alpha``
    and every rational field of a tower document go through here.  A decimal
    literal stands for digits times 10**(exponent - fraction digits); one
    whose power of ten lies beyond ``MAX_DECIMAL_EXPONENT`` either way, or
    any literal with a run of more than ``MAX_LITERAL_DIGITS`` digits, is
    refused before Fraction sees it.  Error messages echo at most
    ``_SHOWN_CHARS`` characters of the literal."""
    shown = text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."
    if any(len(run.replace("_", "")) > MAX_LITERAL_DIGITS
           for run in _DIGIT_RUN.findall(text)):
        raise ValueError(f"bad rational {shown!r}: more than "
                         f"{MAX_LITERAL_DIGITS} digits in a row")
    decimal = _DECIMAL.fullmatch(text.strip())
    if decimal:
        places = len((decimal.group(1) or "").replace("_", ""))
        exponent = (decimal.group(2) or "0").replace("_", "")
        if abs(int(exponent) - places) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"bad rational {shown!r}: decimal exponent beyond "
                             f"±{MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as e:
        raise ValueError(f"bad rational {shown!r}: zero denominator") from e
    except ValueError as e:   # its message repeats the whole literal
        raise ValueError(f"bad rational {shown!r}: not p/q or a decimal") from e


@dataclass(frozen=True)
class UpperDensityFn:
    """A named upper-density evaluator on periodic sets."""

    name: str
    eval_periodic: Callable[[ResidueSet], Fraction]


@dataclass(frozen=True)
class DensityInterval:
    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper <= 1):
            raise ValueError(f"bad density interval [{self.lower}, {self.upper}]")


def buck_upper_periodic(p: ResidueSet) -> Fraction:
    """Upper Buck density of a finite union of APs: exactly |H|/k.

    The covering infimum is attained by the set itself, since any finite
    union of APs containing it has at least this asymptotic density.
    """
    return p.density()


# ---------------------------------------------------------------------------
# empirical estimators (float-only, verification side)

# the longest window [0, horizon] that verification materializes
DEFAULT_ENUM_BUDGET = 10_000_000


def check_horizon(horizon: int) -> None:
    """Refuse to enumerate ``[0, horizon]`` past ``DEFAULT_ENUM_BUDGET``: a
    verification window, or the bound of an enumerated oracle."""
    if horizon > DEFAULT_ENUM_BUDGET:
        raise ResourceLimitError(
            f"[0, {horizon}] exceeds the enumeration budget [0, {DEFAULT_ENUM_BUDGET}]")


def periodic_indicator(p: ResidueSet, horizon: int) -> np.ndarray:
    """0/1 uint8 array over [0, horizon]; index i says whether i is a member."""
    check_horizon(horizon)
    return p.window(horizon + 1)


def _check_indicator(ind: np.ndarray, horizon: int) -> None:
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if ind.shape[0] < horizon + 1:
        raise ValueError("indicator shorter than horizon")


_ASYMPTOTIC_POINTS = 60   # log-spaced n, before rounding merges any


def empirical_asymptotic(ind: np.ndarray, horizon: int) -> tuple[float, float]:
    """(min, max) of |X ∩ [1, n]| / n over ``_ASYMPTOTIC_POINTS`` log-spaced
    n in [horizon/100, horizon].

    Finite-horizon proxies for liminf/limsup of the counting ratio.  ``ind``
    is a 0/1 indicator of X on [0, horizon] or longer (uint8 or bool); the
    count up to each n is summed from one ``count_nonzero`` per segment
    between consecutive n.
    """
    _check_indicator(ind, horizon)
    lo_n = max(1, horizon // 100)
    ns = np.unique(np.geomspace(lo_n, horizon, num=_ASYMPTOTIC_POINTS).astype(np.int64))
    starts = np.concatenate(([1], ns[:-1] + 1))
    counts = np.cumsum([np.count_nonzero(ind[a: b + 1]) for a, b in zip(starts, ns)],
                       dtype=np.int64)   # counts[j] = |X ∩ [1, ns[j]]|
    ratios = counts / ns
    return float(ratios.min()), float(ratios.max())


def empirical_banach(ind: np.ndarray, window: int, horizon: int, period: int) -> float:
    """Max over length-``window`` windows inside [1, horizon] of count/window.

    ``ind`` is a 0/1 indicator of X on [0, horizon] or longer (uint8 or
    bool).  ``period`` is a p with ind[x] <= ind[x + p] wherever both lie in
    [0, horizon]: a set of period p, or an A + B window
    [x >= t_{x mod p}].  Then the count W(i) of [i + 1, i + window] is at
    most W(i + p), so the maximum lies among the last p offsets
    i in [horizon - window - p + 1, horizon - window], and only those are
    counted.  p = horizon + 1 holds for every indicator and counts every
    offset.
    """
    if not 1 <= window <= horizon:
        raise ValueError("need 1 <= window <= horizon")
    if period < 1:
        raise ValueError(f"period must be at least 1, not {period}")
    _check_indicator(ind, horizon)
    first = max(0, horizon - window - period + 1)
    # counts[j] = |X ∩ [first + 1, first + j]|
    counts = np.zeros(horizon - first + 1, dtype=np.int64)
    np.cumsum(ind[first + 1: horizon + 1], dtype=np.int64, out=counts[1:])
    # window [i+1, i+window] for i in [first, horizon-window]
    best = int(np.max(counts[window:] - counts[: counts.shape[0] - window]))
    return best / window


def empirical_logarithmic(ind: np.ndarray, horizon: int) -> float:
    """Weighted frequency with weights 1/i, normalized by the harmonic sum.

    ``ind`` is a 0/1 indicator of X on [0, horizon] or longer (uint8 or
    bool).  Evaluated on (sqrt(horizon), horizon]: dropping a prefix leaves
    the logarithmic density unchanged in the limit but kills the small-i
    transient, which otherwise decays only like 1/log(horizon).
    """
    _check_indicator(ind, horizon)
    start = math.isqrt(horizon) + 1 if horizon > 4 else 1
    weights = np.arange(start, horizon + 1, dtype=np.float64)
    np.divide(1.0, weights, out=weights)
    return float(np.dot(ind[start: horizon + 1].astype(np.float64), weights) / weights.sum())


def default_window(horizon: int) -> int:
    """The Banach window of a proxy run that names none: a tenth of the
    horizon, at least 1."""
    return max(1, horizon // 10)


def proxies(ind: np.ndarray, horizon: int, period: int,
            window: int | None = None) -> tuple[tuple[float, float], float, float]:
    """The asymptotic (min, max), Banach and logarithmic proxies of X on
    [0, horizon], for a ``period`` that ``empirical_banach`` may scan over;
    the Banach window defaults to ``default_window(horizon)``."""
    if window is None:
        window = default_window(horizon)
    return (empirical_asymptotic(ind, horizon),
            empirical_banach(ind, window, horizon, period),
            empirical_logarithmic(ind, horizon))


# ---------------------------------------------------------------------------
# axiom conformance suite

_AXIOMS = ("F1", "F2", "F3", "F4")

_SUITE_MAX_MODULUS = 10_000


@dataclass
class AxiomResult:
    axiom: str
    counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


@dataclass
class AxiomReport:
    evaluator: str
    samples: int
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
                    "samples": self.samples,
                    "verdict": "PASS" if r.passed else "FAIL",
                    "counterexample": r.counterexample,
                }
                for r in self.results.values()
            ],
        }
        return json.dumps(doc, indent=2)


def _randrange_block(rng: random.Random, k: int, count: int) -> np.ndarray:
    """``[rng.randrange(k) for _ in range(count)]`` as an array, from the
    same generator words drawn in blocks (for ``0 < k < 2**32``).

    ``randrange(k)`` takes 32-bit words ``w >> (32 - k.bit_length())`` until
    one is below k, and ``getrandbits(32 * n)`` is the next n words, low word
    first.  Each round draws one word per value still missing, so no word
    is drawn that the loop of ``randrange`` calls would not draw.
    """
    shift = 32 - k.bit_length()
    blocks = [np.empty(0, dtype=np.uint32)]
    need = count
    while need:
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"),
                              dtype="<u4") >> shift
        blocks.append(words[words < k])
        need -= blocks[-1].size
    return np.concatenate(blocks)


def _random_residue_subset(rng: random.Random, k: int) -> np.ndarray:
    # geometric mix of sparse and dense subsets
    target = rng.choice([1, 2, max(1, k // 100), max(1, k // 10), max(1, k // 2)])
    target = min(target, k)
    return _randrange_block(rng, k, target)


def _random_periodic(rng: random.Random) -> ResidueSet:
    k = rng.randrange(1, _SUITE_MAX_MODULUS + 1)
    return ResidueSet(k, _random_residue_subset(rng, k))


def axiom_suite(d: UpperDensityFn, samples: int, seed: int) -> AxiomReport:
    """Check F1 (normalization), F2 (monotonicity), F3 (subadditivity) and
    F4 (affine scaling) on ``samples`` pseudo-random periodic sets each,
    drawn from ``seed``, with moduli <= 10^4.  An axiom fails at its first
    counterexample, which the report keeps.

    F3 pairs are sampled on divisors of a shared modulus so the rebase
    stays within the 10^4 budget; F4 uses small scale factors so the exact
    equality ``d(k*X + h) = d(X)/k`` is testable directly.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = random.Random(seed)
    report = AxiomReport(evaluator=d.name, samples=samples, seed=seed)
    for ax in _AXIOMS:
        report.results[ax] = AxiomResult(axiom=ax)

    full = ResidueSet(1, [0])
    if d.eval_periodic(full) != 1:
        report.results["F1"].counterexample = {"set": dumps_periodic(full),
                                               "value": str(d.eval_periodic(full))}

    for _ in range(samples):
        # F1: d(X) <= d(N) = 1
        p = _random_periodic(rng)
        r = report.results["F1"]
        v = d.eval_periodic(p)
        if r.passed and not (0 <= v <= 1):
            r.counterexample = {"set": dumps_periodic(p), "value": str(v)}

        # F2: X ⊆ Y implies d(X) <= d(Y)
        r = report.results["F2"]
        sub = p
        sup = union(p, ResidueSet(p.modulus, _random_residue_subset(rng, p.modulus)))
        if r.passed and d.eval_periodic(sub) > d.eval_periodic(sup):
            r.counterexample = {"subset": dumps_periodic(sub), "superset": dumps_periodic(sup)}

        # F3: d(X ∪ Y) <= d(X) + d(Y), equality when disjoint
        r = report.results["F3"]
        k = rng.randrange(2, _SUITE_MAX_MODULUS + 1)
        divs = divisors(k)
        ka = rng.choice(divs)
        kb = rng.choice(divs)
        pa = ResidueSet(ka, _random_residue_subset(rng, ka))
        pb = ResidueSet(kb, _random_residue_subset(rng, kb))
        u = union(pa, pb)
        va, vb, vu = d.eval_periodic(pa), d.eval_periodic(pb), d.eval_periodic(u)
        ok = vu <= va + vb
        if ok and intersect(pa, pb).is_empty():
            ok = vu == va + vb
        if r.passed and not ok:
            r.counterexample = {"x": dumps_periodic(pa), "y": dumps_periodic(pb),
                                "union": dumps_periodic(u)}

        # F4: d(k*X + h) = d(X)/k, exactly
        r = report.results["F4"]
        scale = rng.randrange(1, 101)
        offset = rng.randrange(0, 101)
        base = ResidueSet(rng.randrange(1, 101), _random_residue_subset(rng, 100))
        img = affine(base, scale, offset)
        if r.passed and d.eval_periodic(img) != d.eval_periodic(base) / scale:
            r.counterexample = {"set": dumps_periodic(base), "k": scale, "h": offset,
                                "image": dumps_periodic(img)}

    return report


BUCK = UpperDensityFn("buck", buck_upper_periodic)
