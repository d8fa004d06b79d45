"""Residue-cover oracles.

For a fixed set B, ``cover(m)`` is the set of residues r with
``(m*N + r) ∩ B != ∅``.  The built-in oracles (primes, factorials, perfect
powers, finite sets) are exact at every modulus in budget; covers obtained
by enumerating a predicate up to a bound are under-approximate and carry
``exact=False`` into towers, reports and the smallness verdict.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .density import check_horizon
from .sets import (ResidueSet, ResourceLimitError, check_budget, factorize, intersect,
                   naturals, union)

__all__ = [
    "CoverOracle",
    "PrimesOracle",
    "FactorialsOracle",
    "PerfectPowersOracle",
    "FiniteOracle",
    "EnumeratedOracle",
    "primes_cover",
    "factorials_cover",
    "perfect_powers_cover",
    "finite_cover",
    "SmallnessProfile",
    "smallness_profile",
    "parse_oracle",
    "sieve_primes",
]


class CoverOracle:
    """Base oracle: a named set B with cover and enumeration access."""

    name: str
    exact: bool

    def cover(self, m: int) -> ResidueSet:
        raise NotImplementedError

    def enumerate(self, bound: int) -> np.ndarray:
        """Sorted int64 array of the members of B in [0, bound]."""
        raise NotImplementedError

    def __init__(self):
        self._cover_cache: dict[int, ResidueSet] = {}

    def cover_cached(self, m: int) -> ResidueSet:
        c = self._cover_cache.get(m)
        if c is None:
            c = self.cover(m)
            self._cover_cache[m] = c
        return c


# ---------------------------------------------------------------------------
# primes

def sieve_primes(bound: int) -> np.ndarray:
    """Primes <= bound, by one sieve of Eratosthenes over the odd numbers,
    ``(bound + 1) // 2`` flags (every package bound is within
    ``DEFAULT_ENUM_BUDGET``)."""
    if bound < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((bound + 1) // 2, dtype=bool)   # odd[i] flags 2i + 1
    odd[0] = False
    for p in range(3, math.isqrt(bound) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2:: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 1)).astype(np.int64, copy=False)


def primes_cover(m: int) -> ResidueSet:
    """Exact cover of the primes mod m: every class coprime to m contains a
    prime (Dirichlet), plus the classes of the finitely many primes dividing m.

    Being coprime to m is a condition mod each prime p | m, so the units are
    the CRT product of the units mod each p, a set mod the radical of m,
    which the ``union`` with the primes dividing m rebases to m.
    """
    check_budget(m)
    primes = factorize(m)
    units = _crt_product([_indicator(p, p, zero=False) for p in primes])
    return union(units, ResidueSet(m, primes))


def _prime_powers(factors: dict[int, int]) -> list[tuple[int, int]]:
    """``(p^e, p)`` for each prime power p^e || m, ascending in p^e."""
    return sorted((p ** e, p) for p, e in factors.items())


def _indicator(q: int, p: int, *, zero: bool) -> np.ndarray:
    """Indicator of the units mod q = p^e, with 0 added when ``zero``."""
    ind = np.ones(q, dtype=np.uint8)
    ind[::p] = 0
    ind[0] = zero
    return ind


def _crt_product(indicators: list[np.ndarray]) -> ResidueSet:
    """The set mod m of ``{r : ind_q[r mod q] for every q}``, from one 0/1
    indicator of length q per modulus q of pairwise coprime moduli whose
    product is m (the primes or the prime powers q || m), in ascending
    order of q.

    Under the CRT a product of component sets is their intersection: each
    indicator is packed as a set mod q and the sets are intersected in
    turn, every step tiling in words (``tile_words``), the largest q last.
    With no prime power (m = 1) the product is all of N.
    """
    components = [ResidueSet.from_bits(ind) for ind in indicators] or [naturals()]
    return functools.reduce(intersect, components)


class PrimesOracle(CoverOracle):
    name = "primes"
    exact = True

    def cover(self, m: int) -> ResidueSet:
        return primes_cover(m)

    def enumerate(self, bound: int) -> np.ndarray:
        return sieve_primes(bound)


# ---------------------------------------------------------------------------
# factorials  B = {j! : j >= 1}

# the most factorials j! mod m that ``factorials_cover`` steps through
_FACTORIAL_STEP_MAX = 1_000_000


def _kempner(m: int) -> int:
    """The least j >= 1 with m | j!: the maximum over p^e || m of the least
    multiple j of p whose factorial holds p at least e times."""
    s = 1
    for p, e in factorize(m).items():
        j = 0
        while e > 0:
            j += p
            x = j
            while x % p == 0 and e > 0:
                x //= p
                e -= 1
        s = max(s, j)
    return s


def factorials_cover(m: int) -> ResidueSet:
    """Residues of j! mod m; the iteration stops at the Kempner number of m,
    the first j with j! ≡ 0 (mod m), since every later factorial is a
    multiple of m.  Tower moduli n! stop by j = n.  The residues are set
    in words, with no array of length m."""
    check_budget(m)
    steps = _kempner(m)
    if steps > _FACTORIAL_STEP_MAX:
        raise ResourceLimitError(
            f"the factorials reach 0 mod {m} only at {steps}!, past the step "
            f"budget {_FACTORIAL_STEP_MAX}")
    residues, f, j = [1 % m], 1 % m, 1
    while f:
        j += 1
        f = f * j % m
        residues.append(f)
    return ResidueSet(m, residues)


class FactorialsOracle(CoverOracle):
    name = "factorials"
    exact = True

    def cover(self, m: int) -> ResidueSet:
        return factorials_cover(m)

    def enumerate(self, bound: int) -> np.ndarray:
        vals, f, j = [], 1, 1
        while f <= bound:
            vals.append(f)
            j += 1
            f *= j
        return np.array(vals, dtype=np.int64)


# ---------------------------------------------------------------------------
# perfect powers  B = {a^k : a >= 0, k >= 2}

def _power_image(q: int, k: int) -> np.ndarray:
    """Indicator of the k-th powers mod q, by square-and-multiply on the
    residues in blocks of ``2**16`` (q is a prime power of a modulus in
    budget, so int64 products stay exact), so the int64 work arrays stay
    the size of a block at any q."""
    ind = np.zeros(q, dtype=np.uint8)
    for start in range(0, q, 1 << 16):
        b = np.arange(start, min(start + (1 << 16), q), dtype=np.int64)
        result = np.ones_like(b)
        e = k
        while e:
            if e & 1:
                result = result * b % q
            b = b * b % q
            e >>= 1
        ind[result] = 1
    return ind


def perfect_powers_cover(m: int) -> ResidueSet:
    """Exact cover of the perfect powers mod m.

    x -> x^k acts componentwise under the CRT, so the k-th power image mod
    m is the product of its images mod the prime powers q = p^e || m
    (``_crt_product``), and the cover is the ``union`` of these products
    over k >= 2.  With v the largest e:

    - for k >= v the image mod q lies in the units plus 0 (units map to
      units, and a multiple of p to 0 since k >= e), and every exponent
      k >= v with k ≡ 1 mod lambda(m) (the Carmichael function) attains
      it, so that product stands for every k >= v with no powering;
    - of k < v only the primes are needed: a^(pj) = (a^j)^p puts the
      image of a composite exponent inside that of its prime factor p.
    """
    check_budget(m)
    factors = factorize(m)
    moduli = _prime_powers(factors)
    cover = _crt_product([_indicator(q, p, zero=True) for q, p in moduli])
    for k in range(2, max(factors.values(), default=0)):
        if factorize(k) == {k: 1}:
            cover = union(cover, _crt_product([_power_image(q, k) for q, _ in moduli]))
    return cover


class PerfectPowersOracle(CoverOracle):
    name = "powers"
    exact = True

    def cover(self, m: int) -> ResidueSet:
        return perfect_powers_cover(m)

    def enumerate(self, bound: int) -> np.ndarray:
        vals = {0, 1} if bound >= 1 else ({0} if bound >= 0 else set())
        k = 2
        while 2 ** k <= bound:
            a = 2
            while a ** k <= bound:
                vals.add(a ** k)
                a += 1
            k += 1
        return np.array(sorted(vals), dtype=np.int64)


# ---------------------------------------------------------------------------
# finite sets and enumerated predicates

def finite_cover(s: Sequence[int], m: int) -> ResidueSet:
    values = list(s)
    if not values:
        raise ValueError("B must be non-empty")
    return ResidueSet(m, (v % m for v in values))


class FiniteOracle(CoverOracle):
    exact = True

    def __init__(self, values: Sequence[int], name: str | None = None):
        super().__init__()
        vals = sorted(set(int(v) for v in values))
        if not vals:
            raise ValueError("B must be non-empty")
        if vals[0] < 0:
            raise ValueError("B must live in the non-negative integers")
        self.values = vals
        self.name = name or ("finite:" + ",".join(map(str, vals[:8]))
                             + (",..." if len(vals) > 8 else ""))

    def cover(self, m: int) -> ResidueSet:
        return finite_cover(self.values, m)

    def enumerate(self, bound: int) -> np.ndarray:
        return np.array([v for v in self.values if v <= bound], dtype=np.int64)


class EnumeratedOracle(CoverOracle):
    """Oracle for a user predicate, exact only up to its enumeration bound."""

    exact = False

    def __init__(self, pred: Callable[[int], bool], bound: int, name: str = "pred-enum"):
        super().__init__()
        if bound < 0:
            raise ValueError(f"enumeration bound {bound} is negative")
        check_horizon(bound)
        self.pred = pred
        self.bound = bound
        self.name = name
        self._members: np.ndarray | None = None

    def _materialize(self) -> np.ndarray:
        if self._members is None:
            members = []
            for b in range(self.bound + 1):
                try:
                    if self.pred(b):
                        members.append(b)
                except Exception as e:   # the user's predicate, not ours
                    raise ValueError(f"{self.name}: member({b}) raised "
                                     f"{type(e).__name__}: {e}") from e
            self._members = np.array(members, dtype=np.int64)
        return self._members

    def cover(self, m: int) -> ResidueSet:
        members = self._materialize()
        if members.size == 0:
            warnings.warn("predicate matched nothing up to the bound; "
                          "B is required to be non-empty")
            return ResidueSet(m, [])
        return ResidueSet(m, members)

    def enumerate(self, bound: int) -> np.ndarray:
        members = self._materialize()
        return members[members <= min(bound, self.bound)]


# ---------------------------------------------------------------------------
# smallness profiles

@dataclass
class SmallnessProfile:
    oracle: str
    exact: bool
    rows: list[tuple[int, int, Fraction]]  # (n, |cover(n!)|, eps_n)
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "exact": self.exact,
            "rows": [{"n": n, "cover_size": c, "epsilon": str(e)}
                     for n, c, e in self.rows],
            "verdict": self.verdict,
        }


def smallness_profile(oracle: CoverOracle, n_max: int) -> SmallnessProfile:
    """eps_n = |cover(n!)| / n! for n = 1..n_max, with a coarse verdict.

    ``eps_n -> 0`` is the defining property of a small set; a profile pinned
    at 1 certifies non-smallness, anything else is reported as observed.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rows = []
    f = 1
    for n in range(1, n_max + 1):
        f *= n
        c = oracle.cover_cached(f)
        rows.append((n, len(c), Fraction(len(c), f)))
    eps = [row[2] for row in rows]
    if eps[-1] == 1:
        verdict = "not small"
    elif all(a >= b for a, b in zip(eps, eps[1:])) and eps[-1] < 1:
        verdict = "consistent with small"
    else:
        verdict = "inconclusive"
    if not oracle.exact:
        verdict += " (heuristic: under-approximate cover)"
    return SmallnessProfile(oracle.name, oracle.exact, rows, verdict)


# ---------------------------------------------------------------------------
# CLI-facing oracle specs

def _load_predicate(path: str) -> Callable[[int], bool]:
    spec = importlib.util.spec_from_file_location("buckdens_user_pred", path)
    if spec is None or spec.loader is None:
        raise ValueError(f"cannot load predicate module from {path}")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except Exception as e:   # any error the user's module raises on import
        raise ValueError(f"cannot import {path}: {type(e).__name__}: {e}") from e
    if not hasattr(module, "member"):
        raise ValueError(f"{path} must define member(n) -> bool")
    return module.member


def parse_oracle(spec: str) -> CoverOracle:
    """Parse an oracle spec string.

    Supported: ``primes``, ``factorials``, ``powers``, ``finite:<comma-list>``,
    ``file:<path>`` (one integer per line), ``pred-enum:<path>:<bound>``.
    """
    spec = spec.strip()
    if spec == "primes":
        return PrimesOracle()
    if spec == "factorials":
        return FactorialsOracle()
    if spec == "powers":
        return PerfectPowersOracle()
    if spec.startswith("finite:"):
        body = spec[len("finite:"):]
        try:
            values = [int(t) for t in body.split(",") if t.strip()]
        except ValueError as e:
            raise ValueError(f"bad finite oracle spec {spec!r}") from e
        return FiniteOracle(values, name=spec)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        with open(path) as fh:
            values = [int(line) for line in fh if line.strip()]
        return FiniteOracle(values, name=spec)
    if spec.startswith("pred-enum:"):
        body = spec[len("pred-enum:"):]
        path, sep, bound_s = body.rpartition(":")
        if not sep or not path:
            raise ValueError(f"bad pred-enum spec {spec!r}, want pred-enum:<path>:<bound>")
        return EnumeratedOracle(_load_predicate(path), int(bound_s), name=spec)
    raise ValueError(f"unknown oracle spec {spec!r}")
