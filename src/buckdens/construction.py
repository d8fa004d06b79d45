"""Recursive tower construction: for a target density alpha and a set B
given by an exact residue-cover oracle, build nested residue sets H_n mod n!
with marked elements h_n so that the sumset densities certify

    L_n  <=  alpha  <  U_n,      U_n - L_n <= |cover(n!)| / n!,

where L_n and U_n are the exact densities of (n!*N + H_n \\ {h_n}) + B and
(n!*N + H_n) + B.  The limit set A = intersection of the n!*N + H_n then has
sumset density exactly alpha; at finite depth every certificate is an exact
rational and is re-checkable from scratch.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import kernels
from .density import DensityInterval
from .oracles import CoverOracle
from .sets import PeriodicSet, ResidueSet, ResourceLimitError, sumset_mod

__all__ = [
    "CertificateError",
    "Level",
    "Tower",
    "construct",
    "step",
    "check_claimA",
    "ClaimAReport",
    "a_bounds",
    "sum_bounds",
    "SumBounds",
    "membership",
    "count_A",
    "tower_to_json",
    "tower_from_json",
    "DEFAULT_MAX_DEPTH",
    "HARD_MAX_DEPTH",
]

DEFAULT_MAX_DEPTH = 10
HARD_MAX_DEPTH = 11   # 11! < sets.DENSE_LIMIT: every level fits a bitmap

SCHEMA = "buckdens-tower-v1"


class CertificateError(Exception):
    """An exact certificate failed to hold."""


@dataclass(frozen=True)
class Level:
    n: int
    modulus: int            # n!
    H: ResidueSet           # subset of [0, n!)
    h: int                  # marked element, h in H
    k_chosen: int | None    # absent at level 1
    density_a: Fraction     # |H| / n!
    sum_lower: Fraction     # density of (n!N + H\{h}) + B
    sum_upper: Fraction     # density of (n!N + H) + B
    # (H\{h}) + cover(n!) mod n!, carried between steps; never serialized
    lower_sumset: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass
class Tower:
    alpha: Fraction
    oracle_spec: str
    exact: bool
    levels: list[Level] = field(default_factory=list)
    trivial: bool = False   # alpha == 1, A = N

    @property
    def depth(self) -> int:
        return 0 if self.trivial else len(self.levels)

    @property
    def top(self) -> Level:
        return self.levels[-1]


def _base_level(cover_one: ResidueSet) -> Level:
    # H_1 = {0}, h_1 = 0; the empty H' gives sumset density 0, the full
    # class gives density 1 (cover mod 1 is {0} for any non-empty B)
    if len(cover_one) == 0:
        raise CertificateError("cover of B mod 1 is empty; B must be non-empty")
    return Level(n=1, modulus=1, H=ResidueSet(1, [0]), h=0, k_chosen=None,
                 density_a=Fraction(1), sum_lower=Fraction(0), sum_upper=Fraction(1),
                 lower_sumset=np.zeros(1, dtype=np.uint8))


def step(prev: Level, cover_next: ResidueSet, alpha: Fraction) -> Level:
    """One inductive step from level m to level m+1, modulo (m+1)!.

    Candidate k is H_m' tiled plus the classes h_m + j*m!, j <= k.  As
    cover((m+1)!) mod m! = cover(m!), tiled H_m' has as sumset the tiling
    of the lower sumset H_m' + cover(m!) that ``prev`` carries, and each
    class ORs in one rotated cover.  Densities grow with k: k_{m+1} is the
    first class passing alpha, the state before it is the new lower sumset
    and the state after it gives U.  ``check_claimA`` re-derives L by
    convolution and U from it, catching an oracle that breaks the
    projection identity.
    """
    if prev.lower_sumset is None:
        raise ValueError(f"level {prev.n} carries no lower sumset to step from")
    m = prev.n
    fact_m = prev.modulus
    big = fact_m * (m + 1)
    if cover_next.modulus != big:
        raise ValueError(f"cover has modulus {cover_next.modulus}, expected {big}")

    cover_bits = cover_next.bits()
    before = np.tile(prev.lower_sumset, m + 1)
    after = np.empty_like(before)
    for k in range(m + 1):
        kernels.or_rotated(after, before, cover_bits, prev.h + k * fact_m)
        upper = Fraction(int(np.count_nonzero(after)), big)
        if upper > alpha:
            break
        before, after = after, before
    else:
        raise CertificateError(
            f"no admissible cutoff at level {m + 1}: max candidate density "
            f"{upper} fails to exceed alpha={alpha}")

    h_next = prev.h + k * fact_m
    h_bits = np.tile(prev.H.bits(), m + 1)
    h_bits[h_next + fact_m::fact_m] = 0   # the classes beyond the cutoff

    return Level(
        n=m + 1,
        modulus=big,
        H=ResidueSet.from_bits(h_bits),
        h=h_next,
        k_chosen=k,
        density_a=Fraction(int(np.count_nonzero(h_bits)), big),
        sum_lower=Fraction(int(np.count_nonzero(before)), big),
        sum_upper=upper,
        lower_sumset=before,
    )


def construct(oracle: CoverOracle, alpha, depth: int, *,
              allow_deep: bool = False) -> Tower:
    """Build a depth-``depth`` tower targeting sumset density ``alpha``.

    alpha = 1 short-circuits to the trivial tower denoting A = N.  Depth is
    capped so that depth! stays within the dense-bitmap budget (default cap
    10, 11 with ``allow_deep``).
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    cap = HARD_MAX_DEPTH if allow_deep else DEFAULT_MAX_DEPTH
    if depth > cap:
        raise ResourceLimitError(
            f"depth {depth} exceeds the cap {cap}"
            + ("" if allow_deep else " (use allow_deep for 11)"))

    if alpha == 1:
        return Tower(alpha=alpha, oracle_spec=oracle.name, exact=oracle.exact,
                     levels=[], trivial=True)
    if not oracle.exact:
        warnings.warn(
            f"oracle {oracle.name!r} is under-approximate; the smallness "
            "hypothesis on B is unverified and all certificates are heuristic")

    levels = [_base_level(oracle.cover_cached(1))]
    fact = 1
    for n in range(2, depth + 1):
        fact *= n
        levels.append(step(levels[-1], oracle.cover_cached(fact), alpha))
        levels[-2] = replace(levels[-2], lower_sumset=None)
    levels[-1] = replace(levels[-1], lower_sumset=None)
    return Tower(alpha=alpha, oracle_spec=oracle.name, exact=oracle.exact,
                 levels=levels)


# ---------------------------------------------------------------------------
# certificates

@dataclass
class LevelCheck:
    n: int
    lower: Fraction
    upper: Fraction
    bracket_ok: bool          # L_n <= alpha < U_n
    stored_ok: bool           # recomputed values match the stored ones
    nesting_ok: bool | None   # inclusions into/over the next level


@dataclass
class ClaimAReport:
    alpha: Fraction
    checks: list[LevelCheck]
    heuristic: bool

    @property
    def ok(self) -> bool:
        return all(c.bracket_ok and c.stored_ok and c.nesting_ok is not False
                   for c in self.checks)

    def first_violation(self) -> int | None:
        for c in self.checks:
            if not (c.bracket_ok and c.stored_ok and c.nesting_ok is not False):
                return c.n
        return None


def check_claimA(t: Tower, oracle: CoverOracle) -> ClaimAReport:
    """Recompute every level certificate from scratch and test the nesting
    inclusions between consecutive levels.

    Per level, one convolution gives L = d((n!N + H') + B); as
    H = H' ∪ {h}, the sumset of H adds the cover rotated by h, so U needs
    one rotated OR.  Level n+1 nests when each of its n+1 rows mod n! lies
    between H' and H.  The builder instead tiles a carried bitmap, so these
    certificates are an independent re-derivation.
    """
    checks: list[LevelCheck] = []
    if t.trivial:
        return ClaimAReport(t.alpha, checks, heuristic=not oracle.exact)
    for i, lv in enumerate(t.levels):
        cover = oracle.cover_cached(lv.modulus)
        h_prime = lv.H.discard(lv.h)
        low = sumset_mod(PeriodicSet(lv.modulus, h_prime), cover).residues.bits()
        high = low   # h outside H (a broken tower) leaves H' = H
        if lv.h in lv.H:
            high = np.empty_like(low)
            kernels.or_rotated(high, low, cover.bits(), lv.h % lv.modulus)
        lower = Fraction(int(np.count_nonzero(low)), lv.modulus)
        upper = Fraction(int(np.count_nonzero(high)), lv.modulus)
        bracket_ok = lower <= t.alpha < upper
        stored_ok = (lower == lv.sum_lower and upper == lv.sum_upper
                     and 0 <= lv.h < lv.modulus and lv.h in lv.H
                     and lv.density_a == Fraction(len(lv.H), lv.modulus))
        nesting_ok: bool | None = None
        if i + 1 < len(t.levels):
            rows = t.levels[i + 1].H.bits().reshape(-1, lv.modulus)
            inner, outer = h_prime.bits(), lv.H.bits()
            nesting_ok = all(not np.any(row < inner) and not np.any(row > outer)
                             for row in rows)
        checks.append(LevelCheck(lv.n, lower, upper, bracket_ok, stored_ok, nesting_ok))
    return ClaimAReport(t.alpha, checks, heuristic=not oracle.exact)


def a_bounds(t: Tower) -> DensityInterval:
    """Exact sandwich for the density of A: [d(A_N) - 1/N!, d(A_N)]."""
    if t.trivial:
        return DensityInterval(Fraction(1), Fraction(1))
    top = t.top
    return DensityInterval(top.density_a - Fraction(1, top.modulus), top.density_a)


@dataclass
class SumBounds:
    per_level: list[tuple[int, Fraction, Fraction, Fraction]]  # (n, L, U, eps)
    final: DensityInterval
    heuristic: bool


def sum_bounds(t: Tower, oracle: CoverOracle) -> SumBounds:
    """Per-level certificate intervals (L_n, U_n] with eps_n = |cover(n!)|/n!,
    and the final interval certifying alpha - eps_N < b(A+B) <= alpha + eps_N."""
    if t.trivial:
        return SumBounds([], DensityInterval(Fraction(1), Fraction(1)),
                         heuristic=not oracle.exact)
    rows = []
    for lv in t.levels:
        eps = Fraction(len(oracle.cover_cached(lv.modulus)), lv.modulus)
        rows.append((lv.n, lv.sum_lower, lv.sum_upper, eps))
    top = t.top
    return SumBounds(rows, DensityInterval(top.sum_lower, top.sum_upper),
                     heuristic=not oracle.exact)


def membership(t: Tower, x: int) -> str:
    """'out' (definitive), 'in_at_depth' (definitely in A: the only residues
    removed beyond depth N live in the class of h_N mod N!), or 'exceptional'
    (in A_N, congruent to h_N; undecidable at this depth)."""
    if x < 0:
        raise ValueError("membership is defined on the non-negative integers")
    if t.trivial:
        return "in_at_depth"
    for lv in t.levels:
        if (x % lv.modulus) not in lv.H:
            return "out"
    top = t.top
    return "exceptional" if x % top.modulus == top.h else "in_at_depth"


def count_A(t: Tower, horizon: int) -> tuple[int, int]:
    """Integer interval for |A ∩ [1, horizon]|.

    Upper bound counts A_N, in closed form over whole periods of H_N and
    one prefix; the lower bound removes the marked class of h_N
    (which contains every deeper removal) plus an outward-rounded tail
    allowance of horizon * sum_{n>N} 1/n! < horizon * 2/(N+1)!."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if t.trivial:
        return horizon, horizon
    top = t.top
    bits = top.H.bits()
    full, rest = divmod(horizon + 1, top.modulus)
    upper = full * len(top.H) + int(np.count_nonzero(bits[:rest])) - int(bits[0])
    first = top.h if top.h >= 1 else top.modulus
    marked = 0 if first > horizon else (horizon - first) // top.modulus + 1
    tail = math.ceil(Fraction(2 * horizon, math.factorial(top.n + 1)))
    lower = max(0, upper - marked - tail)
    return lower, upper


# ---------------------------------------------------------------------------
# serialization (deterministic; round-trips byte-exactly)

def _encode_residue_set(rs: ResidueSet) -> dict:
    packed = np.packbits(rs.bits(), bitorder="little")
    return {"encoding": "hex-bitmap-le", "data": packed.tobytes().hex()}


def _decode_residue_set(modulus: int, doc) -> ResidueSet:
    _require(doc, ("encoding", "data"), "H")
    if doc["encoding"] != "hex-bitmap-le":
        raise ValueError(f"unknown residue-set encoding {doc['encoding']!r}")
    if not isinstance(doc["data"], str):
        raise ValueError("H data must be a hex string")
    packed = np.frombuffer(bytes.fromhex(doc["data"]), dtype=np.uint8)
    if packed.shape[0] != -(-modulus // 8):
        raise ValueError(f"bitmap of {packed.shape[0]} bytes does not fit modulus {modulus}")
    # an owned copy rather than a view: with the view, glibc kept ~17 MB
    # more resident over primes+powers depth-10 round trips (peak RSS)
    return ResidueSet.from_bits(np.unpackbits(packed, bitorder="little")[:modulus].copy())


def tower_to_json(t: Tower, config: dict | None = None) -> str:
    doc = {
        "schema": SCHEMA,
        "alpha": str(t.alpha),
        "oracle": t.oracle_spec,
        "exact": t.exact,
        "trivial": t.trivial,
        "config": config,
        "levels": [
            {
                "n": lv.n,
                "k_chosen": lv.k_chosen,
                "h": lv.h,
                "H": _encode_residue_set(lv.H),
                "densityA": str(lv.density_a),
                "L": str(lv.sum_lower),
                "U": str(lv.sum_upper),
            }
            for lv in t.levels
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _require(doc, keys: tuple[str, ...], what: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _rational(value, what: str) -> Fraction:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a rational string, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"{what}: bad rational {value!r}") from e


def tower_from_json(text: str) -> tuple[Tower, dict | None]:
    """Parse and validate a tower document; any malformation is a ValueError."""
    doc = json.loads(text)
    _require(doc, ("schema", "alpha", "oracle", "exact", "trivial", "levels"), "tower")
    if doc["schema"] != SCHEMA:
        raise ValueError(f"unsupported tower schema {doc['schema']!r}")
    if not isinstance(doc["exact"], bool) or not isinstance(doc["trivial"], bool):
        raise ValueError("'exact' and 'trivial' must be booleans")
    lvdocs = doc["levels"]
    if not isinstance(lvdocs, list) or len(lvdocs) > HARD_MAX_DEPTH:
        raise ValueError(f"'levels' must be a list of at most {HARD_MAX_DEPTH} levels")
    if doc["trivial"] == bool(lvdocs):
        raise ValueError("a tower has levels exactly when it is not trivial")
    levels = []
    for n, lvdoc in enumerate(lvdocs, start=1):
        what = f"level {n}"
        _require(lvdoc, ("n", "k_chosen", "h", "H", "densityA", "L", "U"), what)
        if lvdoc["n"] != n or not _is_int(lvdoc["n"]):
            raise ValueError(f"{what} has n={lvdoc['n']!r}; levels must run n = 1, 2, ...")
        modulus = math.factorial(n)
        h, k = lvdoc["h"], lvdoc["k_chosen"]
        if not _is_int(h) or not 0 <= h < modulus:
            raise ValueError(f"{what}: h={h!r} is not in [0, {modulus})")
        if not (k is None if n == 1 else _is_int(k) and k >= 0):
            raise ValueError(f"{what}: bad k_chosen {k!r} (none at level 1, "
                             "a non-negative integer after it)")
        levels.append(Level(
            n=n,
            modulus=modulus,
            H=_decode_residue_set(modulus, lvdoc["H"]),
            h=h,
            k_chosen=k,
            density_a=_rational(lvdoc["densityA"], f"{what} densityA"),
            sum_lower=_rational(lvdoc["L"], f"{what} L"),
            sum_upper=_rational(lvdoc["U"], f"{what} U"),
        ))
    tower = Tower(alpha=_rational(doc["alpha"], "alpha"), oracle_spec=doc["oracle"],
                  exact=doc["exact"], levels=levels, trivial=doc["trivial"])
    return tower, doc.get("config")
