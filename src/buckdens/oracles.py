"""Residue-cover oracles.

For a fixed set B, ``cover(m)`` is the set of residues r with
``(m*N + r) ∩ B != ∅``.  The built-in oracles (primes, factorials, perfect
powers, finite sets) are exact at every modulus in budget; covers obtained
by enumerating a predicate up to a bound are under-approximate and carry
``exact=False``, which downstream certificates surface as heuristic.
"""

from __future__ import annotations

import importlib.util
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .sets import ResidueSet, ResourceLimitError, check_budget, factorize

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

_SIEVE_SEGMENT = 1 << 22


def sieve_primes(bound: int) -> np.ndarray:
    """Primes <= bound via a segmented sieve of Eratosthenes."""
    if bound < 2:
        return np.empty(0, dtype=np.int64)
    root = int(math.isqrt(bound))
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, int(math.isqrt(root)) + 1):
        if base[p]:
            base[p * p:: p] = False
    base_primes = np.nonzero(base)[0]
    chunks = [base_primes[base_primes <= bound]]
    for lo in range(root + 1, bound + 1, _SIEVE_SEGMENT):
        hi = min(lo + _SIEVE_SEGMENT, bound + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base_primes:
            start = -(lo // -p) * p  # first multiple of p >= lo
            if start < hi:
                seg[start - lo:: p] = False
        chunks.append(np.nonzero(seg)[0] + lo)
    return np.concatenate(chunks).astype(np.int64)


def primes_cover(m: int) -> ResidueSet:
    """Exact cover of the primes mod m: every class coprime to m contains a
    prime (Dirichlet), plus the classes of the finitely many primes dividing m.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return ResidueSet(1, [0])
    check_budget(m)
    primes = factorize(m)
    bits = np.ones(m, dtype=np.uint8)
    for p in primes:
        bits[::p] = 0
    for p in primes:
        bits[p % m] = 1
    return ResidueSet.from_bits(bits)


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
    multiple of m.  Tower moduli n! stop by j = n."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return ResidueSet(1, [0])
    check_budget(m)
    steps = _kempner(m)
    if steps > _FACTORIAL_STEP_MAX:
        raise ResourceLimitError(
            f"the factorials reach 0 mod {m} only at {steps}!, past the step "
            f"budget {_FACTORIAL_STEP_MAX}")
    bits = np.zeros(m, dtype=np.uint8)
    f, j = 1, 1
    while True:
        bits[f] = 1
        if f == 0:
            break
        j += 1
        f = f * j % m
    return ResidueSet.from_bits(bits)


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
        return np.array(sorted(set(vals)), dtype=np.int64)


# ---------------------------------------------------------------------------
# perfect powers  B = {a^k : a >= 0, k >= 2}

def _pow_mod_vec(base: np.ndarray, exp: int, m: int) -> np.ndarray:
    # square-and-multiply mod a prime power of a modulus in budget;
    # m <= 2^28 keeps int64 products exact
    result = np.ones_like(base)
    b = base % m
    e = exp
    while e:
        if e & 1:
            result = result * b % m
        b = b * b % m
        e >>= 1
    return result


def _carmichael(factors: dict[int, int]) -> int:
    """lambda(m) from the factorization of m: the lcm over p^e || m of
    phi(p^e), halved for 2^e with e >= 3."""
    lam = 1
    for p, e in factors.items():
        lam_q = 2 ** (e - 2) if p == 2 and e >= 3 else p ** (e - 1) * (p - 1)
        lam = math.lcm(lam, lam_q)
    return lam


def perfect_powers_cover(m: int) -> ResidueSet:
    """Exact cover of the perfect powers mod m.

    The k-th power image mod m depends on k only through min(k, v) and
    gcd(k, lambda(m)), where v is the largest prime-power exponent in m and
    lambda is the Carmichael function.  For k >= v every image is contained
    in the image of any exponent coprime to lambda(m) (units map onto units,
    non-units collapse onto 0 componentwise), so it suffices to take the
    exact images for k = 2, ..., v-1 plus one exponent k0 >= max(2, v)
    with gcd(k0, lambda(m)) = 1.

    x -> x^k acts componentwise under the CRT, so each image is built from
    the images mod the prime powers q || m: their sums weighted by the CRT
    idempotents e_q = (m/q) * ((m/q)^-1 mod q).
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return ResidueSet(1, [0])
    check_budget(m)
    factors = factorize(m)
    v_max = max(factors.values())
    lam = _carmichael(factors)
    exponents = list(range(2, v_max))
    k0 = max(2, v_max)
    while math.gcd(k0, lam) != 1:
        k0 += 1
    exponents.append(k0)
    components = []
    for p, e in factors.items():
        q = p ** e
        idempotent = m // q * pow(m // q, -1, q) % m
        components.append((q, idempotent))
    bits = np.zeros(m, dtype=np.uint8)
    for k in exponents:
        image = np.zeros(1, dtype=np.int64)
        for q, idempotent in components:
            part = np.unique(_pow_mod_vec(np.arange(q, dtype=np.int64), k, q))
            image = (image[:, None] + part * idempotent % m).ravel() % m
        bits[image] = 1
    return ResidueSet.from_bits(bits)


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
    if m < 1:
        raise ValueError("modulus must be positive")
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
        self.pred = pred
        self.bound = bound
        self.name = name
        self._members: np.ndarray | None = None

    def _materialize(self) -> np.ndarray:
        if self._members is None:
            self._members = np.array(
                [b for b in range(self.bound + 1) if self.pred(b)], dtype=np.int64)
        return self._members

    def cover(self, m: int) -> ResidueSet:
        members = self._materialize()
        if members.size == 0:
            warnings.warn("predicate matched nothing up to the bound; "
                          "B is required to be non-empty")
            return ResidueSet(m, [])
        return ResidueSet(m, members % m)

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
    spec.loader.exec_module(module)
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
