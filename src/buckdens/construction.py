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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .density import DensityInterval, parse_rational
from .oracles import CoverOracle
from .sets import (ResidueSet, ResourceLimitError, Rotations, bitmap_from_hex_range,
                   bitmap_hex_chunks, fold, rebase, rotated, tile_words, union, word_count)

__all__ = [
    "CertificateError",
    "Level",
    "Tower",
    "construct",
    "step",
    "check_claimA",
    "ClaimAReport",
    "a_classes",
    "a_bounds",
    "sum_bounds",
    "SumBounds",
    "count_A",
    "tower_to_json",
    "tower_from_json",
    "DEFAULT_MAX_DEPTH",
    "HARD_MAX_DEPTH",
]

DEFAULT_MAX_DEPTH = 10
HARD_MAX_DEPTH = 11   # 11! < sets.DENSE_LIMIT: every level fits in 11!/8 bytes of words

SCHEMA = "buckdens-tower-v1"


class CertificateError(Exception):
    """An exact certificate failed to hold."""


@dataclass(frozen=True)
class Level:
    """Level n of a tower as its JSON holds it; the modulus n! is derived
    from n."""

    n: int
    H: ResidueSet           # subset of [0, n!)
    h: int                  # marked element, h in H
    k_chosen: int | None    # absent at level 1
    density_a: Fraction     # |H| / n!
    sum_lower: Fraction     # density of (n!N + H\{h}) + B
    sum_upper: Fraction     # density of (n!N + H) + B

    @property
    def modulus(self) -> int:
        return math.factorial(self.n)


@dataclass
class Tower:
    """Levels n = 1, ..., N for the target alpha; ``trivial`` (no levels:
    A = N, which certifies alpha = 1 only), ``depth`` and ``tail`` are
    derived."""

    alpha: Fraction
    oracle_spec: str
    exact: bool
    levels: list[Level] = field(default_factory=list)

    @property
    def trivial(self) -> bool:
        return not self.levels

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def top(self) -> Level:
        return self.levels[-1]

    @property
    def tail(self) -> Fraction:
        """2/(N+1)!, the bound on sum_{n>N} 1/n! that ``count_A`` and the
        theorem report allow for the levels past N; 0 for a trivial tower."""
        return Fraction(0) if self.trivial else Fraction(2, math.factorial(self.top.n + 1))


def _base_level(cover_one: ResidueSet) -> Level:
    # H_1 = {0}, h_1 = 0; the empty H' gives sumset density 0, the full
    # class gives density 1 (cover mod 1 is {0} for any non-empty B)
    if cover_one.is_empty():
        raise CertificateError("cover of B mod 1 is empty; B must be non-empty")
    return Level(n=1, H=ResidueSet(1, [0]), h=0, k_chosen=None,
                 density_a=Fraction(1), sum_lower=Fraction(0), sum_upper=Fraction(1))


def step(prev: Level, lower: np.ndarray, cover_next: ResidueSet,
         alpha: Fraction) -> Level:
    """One inductive step from level m to level m+1, modulo (m+1)!.

    ``lower`` is the words of the lower sumset of ``prev``,
    H_m' + cover(m!) mod m!, tiled to (m+1)!; as cover((m+1)!) mod m! =
    cover(m!), it is the sumset of H_m' tiled.  Candidate k adds the
    classes h_m + j*m!, j <= k, and each class ORs in one rotated cover.
    Densities grow with k: k_{m+1} is the first class passing alpha, every
    class before it is ORed into ``lower`` in place, which then holds the
    new level's lower sumset, and the state after it gives U.

    The counts come without a pass over (m+1)!: the tiled lower sumset has
    (m+1)·|prev's| members, read off ``prev.sum_lower``, and H_{m+1}, the
    tiling of H_m less its m − k classes beyond the cutoff, has
    (m+1)·|H_m| − (m − k), cleared bit by bit from the tiled words.  The
    cover is never counted: each candidate's U adds the cover's
    ``Rotations.gain`` over the state.

    ``check_claimA`` re-derives L and U from the classes that the nesting
    of each level reveals and from ``cover(n!)`` alone, folded to each
    class's modulus, with ``sets.rotated``, which ``Rotations`` never
    reaches: it shares no rotation with this step, and an oracle that
    breaks the projection identity is caught.
    """
    m = prev.n
    fact_m = prev.modulus
    big = fact_m * (m + 1)
    if cover_next.modulus != big or lower.shape != (word_count(big),):
        raise ValueError(f"cover has modulus {cover_next.modulus} and the lower "
                         f"sumset {lower.shape[0]} words, expected {big} residues")

    cover = Rotations(cover_next)
    size = int(prev.sum_lower * big)
    for k in range(m + 1):
        shift = prev.h + k * fact_m
        grown = size + cover.gain(lower, shift)
        upper = Fraction(grown, big)
        if upper > alpha:
            break
        cover.combine(lower, shift)
        size = grown
    else:
        raise CertificateError(
            f"no admissible cutoff at level {m + 1}: max candidate density "
            f"{upper} fails to exceed alpha={alpha}")

    h_next = prev.h + k * fact_m
    tiled = ResidueSet.from_words(big, tile_words(prev.H.words(), fact_m, m + 1))

    return Level(
        n=m + 1,
        H=tiled.discard(np.arange(h_next + fact_m, big, fact_m)),   # beyond the cutoff
        h=h_next,
        k_chosen=k,
        density_a=Fraction((m + 1) * int(prev.density_a * fact_m) - (m - k), big),
        sum_lower=Fraction(size, big),
        sum_upper=upper,
    )


def construct(oracle: CoverOracle, alpha, depth: int, *,
              allow_deep: bool = False) -> Tower:
    """Build a depth-``depth`` tower targeting sumset density ``alpha``.

    alpha = 1 short-circuits to the trivial tower denoting A = N.  Depth is
    capped so that a level's ⌈depth!/64⌉ words stay within the word budget,
    ``sets.DENSE_LIMIT`` residues (default cap 10, 11 with ``allow_deep``).
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
            + ("" if allow_deep else
               " (--allow-deep, or allow_deep=True in construct, permits 11)"))

    if alpha == 1:
        return Tower(alpha=alpha, oracle_spec=oracle.name, exact=oracle.exact)
    if not oracle.exact:
        warnings.warn(
            f"oracle {oracle.name!r} is under-approximate; the smallness "
            "hypothesis on B is unverified and all certificates are heuristic")

    levels = [_base_level(oracle.cover_cached(1))]
    lower = ResidueSet(1).words()   # (H_1 minus h_1) + cover(1) is empty
    for n in range(2, depth + 1):
        lower = tile_words(lower, levels[-1].modulus, n)
        levels.append(step(levels[-1], lower, oracle.cover_cached(levels[-1].modulus * n),
                           alpha))
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
    classes: list[tuple[int, int]]   # (n!, c) as a_classes lists them, as far as read

    @property
    def ok(self) -> bool:
        # a tower with no levels (A = N) certifies alpha = 1 only
        return self.first_violation() is None and (bool(self.checks) or self.alpha == 1)

    def first_violation(self) -> int | None:
        for c in self.checks:
            if not (c.bracket_ok and c.stored_ok and c.nesting_ok is not False):
                return c.n
        return None


def _level_classes(prev: Level, lv: Level) -> list[int] | None:
    """The classes that level ``lv`` (n) adds to A: the lifts
    h_{n−1} + j·(n−1)! that H_n holds, other than h_n, as residues mod n!;
    None when lv does not nest in ``prev``.

    Level n nests when each of its n rows mod (n−1)! lies between
    H'_{n−1} = H_{n−1} ∖ {h_{n−1}} and H_{n−1}: when the AND-fold of the
    rows contains H'_{n−1} and their OR-fold lies inside H_{n−1}.  Then
    H_n is H'_{n−1} tiled plus the lifts it holds, and when h_n is one of
    those lifts (or outside H_n), H'_n is H'_{n−1} tiled plus these
    classes.  No later level that nests removes any of them, so H'_N is
    the union of every level's classes c + n!·N.
    """
    m = prev.modulus
    if not (prev.H.discard(prev.h).issubset(fold(np.bitwise_and, lv.H, m))
            and fold(np.bitwise_or, lv.H, m).issubset(prev.H)):
        return None
    h = lv.h % lv.modulus
    return [c for c in range(prev.h % m, lv.modulus, m) if c != h and c in lv.H]


def a_classes(t: Tower) -> list[tuple[int, int]]:
    """A's definite part, H'_N = H_N ∖ {h_N} mod N!, as its classes
    ``(n!, c)``, each the integers c + n!·N, level by level
    (``_level_classes``); the one class of N when A = N.  Raises
    :class:`CertificateError` at the first level that does not nest in its
    predecessor, or that holds its marked element off the class of the
    predecessor's, as H'_N is then no union of these classes."""
    if t.trivial:
        return [(1, 0)]
    classes = []
    for prev, lv in zip(t.levels, t.levels[1:]):
        held = _level_classes(prev, lv)
        if held is None:
            raise CertificateError(f"level {lv.n} does not nest in level {prev.n}")
        if lv.h in lv.H and (lv.h - prev.h) % prev.modulus:
            raise CertificateError(f"level {lv.n} marks an element off the class "
                                   f"of level {prev.n}'s")
        classes += [(lv.modulus, c) for c in held]
    return classes


def _class_sums(lv: Level, cover: ResidueSet,
                classes: dict[int, list[int]]) -> tuple[Fraction, Fraction]:
    """(L, U) of level ``lv`` from the classes of A read so far, ``classes``
    (level m to residues mod m!), and the level's cover mod n!.

    Each class c + m!·N plus B is the set of x with x mod m! in c plus the
    cover folded to m!, so S, the union of the classes' sumsets, lives mod
    M, the largest class modulus, and L = |S|/M.  The cover is folded down
    one factorial at a time, and each class rotates its fold.  As
    H = H' ∪ {h}, U adds the cover's residues s with s + h outside S:
    one count of the cover ANDed with the complement of S rotated back by
    h and tiled to n! (U = L when h is outside H).
    """
    s, folded, m = ResidueSet(1), cover, lv.n
    for n in sorted(classes, reverse=True):
        while m > n:
            m -= 1
            folded = fold(np.bitwise_or, folded, math.factorial(m))
        s = union(s, rotated(folded, classes[n]))
    lower = s.density()
    if lv.h not in lv.H:
        return lower, lower
    mask = rebase(rotated(s, [-lv.h % s.modulus]), lv.modulus).words()
    missed = ResidueSet.from_words(lv.modulus, cover.words() & ~mask)
    return lower, lower + Fraction(len(missed), lv.modulus)


def check_claimA(t: Tower, oracle: CoverOracle) -> ClaimAReport:
    """Recompute every level certificate from scratch and test the nesting
    inclusions between consecutive levels, up to the first level whose
    successor fails to nest in it.

    Per level, the stored L, U, h, density and (from level 2 on) k_n with
    h_n = h_{n−1} + k_n·(n−1)! are compared with recomputed values; |H| is
    counted once.  L and U come from the classes of A that the levels so
    far hold (``_class_sums``): each nesting check reveals the next
    level's classes (``_level_classes``), so level n is summed only once
    it has nested in level n − 1, and H'_n is a union of at most Σk full
    classes.  A level whose stored h is no lift of h_{n−1} fails its
    stored fields, whatever its L and U.  The checker rotates only through
    ``sets.rotated``: the builder instead adds one rotated cover per class
    to the tiled lower sumset through ``sets.Rotations`` and counts in
    closed form, so these certificates are an independent re-derivation.
    The report carries the classes read, ``a_classes(t)`` once it is ok.
    A tower with no levels gets no checks, and its report is ok for
    alpha = 1 only.
    """
    checks: list[LevelCheck] = []
    classes: dict[int, list[int]] = {}
    for i, lv in enumerate(t.levels):
        lower, upper = _class_sums(lv, oracle.cover_cached(lv.modulus), classes)
        bracket_ok = lower <= t.alpha < upper
        stored_ok = (lower == lv.sum_lower and upper == lv.sum_upper
                     and 0 <= lv.h < lv.modulus and lv.h in lv.H
                     and lv.density_a == Fraction(len(lv.H), lv.modulus))
        if i:
            prev, k = t.levels[i - 1], lv.k_chosen
            stored_ok = (stored_ok and k is not None and 0 <= k < lv.n
                         and lv.h == prev.h + k * prev.modulus)
        nesting_ok: bool | None = None
        if i + 1 < len(t.levels):
            held = _level_classes(lv, t.levels[i + 1])
            nesting_ok = held is not None
            if held:
                classes[lv.n + 1] = held
        checks.append(LevelCheck(lv.n, lower, upper, bracket_ok, stored_ok, nesting_ok))
        if nesting_ok is False:
            break
    read = [(math.factorial(n), c) for n, held in classes.items() for c in held]
    return ClaimAReport(t.alpha, checks, read if t.levels else [(1, 0)])


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


def sum_bounds(t: Tower, oracle: CoverOracle) -> SumBounds:
    """Per-level certificate intervals (L_n, U_n] with eps_n = |cover(n!)|/n!,
    and the final interval certifying alpha - eps_N < b(A+B) <= alpha + eps_N."""
    if t.trivial:
        return SumBounds([], DensityInterval(Fraction(1), Fraction(1)))
    rows = []
    for lv in t.levels:
        eps = oracle.cover_cached(lv.modulus).density()
        rows.append((lv.n, lv.sum_lower, lv.sum_upper, eps))
    top = t.top
    return SumBounds(rows, DensityInterval(top.sum_lower, top.sum_upper))


def count_A(t: Tower, horizon: int) -> tuple[int, int]:
    """Integer interval for |A ∩ [1, horizon]|.

    Upper bound counts A_N, in closed form over whole periods of H_N and
    one prefix; the lower bound removes the marked class of h_N
    (which contains every deeper removal) plus an outward-rounded tail
    allowance of horizon * ``t.tail``."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if t.trivial:
        return horizon, horizon
    top = t.top
    full, rest = divmod(horizon + 1, top.modulus)
    upper = (full * len(top.H) + (len(top.H.prefix(rest)) if rest else 0)
             - (0 in top.H))
    first = top.h if top.h >= 1 else top.modulus
    marked = 0 if first > horizon else (horizon - first) // top.modulus + 1
    lower = max(0, upper - marked - math.ceil(horizon * t.tail))
    return lower, upper


# ---------------------------------------------------------------------------
# serialization (deterministic; round-trips byte-exactly)

def _decode_residue_set(modulus: int, doc, slot: tuple[str, int, int] | None
                        ) -> ResidueSet:
    """A level's H from its JSON object: a ``hex-bitmap-le`` string that
    ``sets.bitmap_from_hex_range`` takes, so that ``tower_to_json`` writes
    it back byte for byte.  The string is ``text[start:stop]`` for a
    ``slot`` ``(text, start, stop)`` of a canonical document, else
    ``doc``'s own value."""
    _require(doc, ("encoding", "data"), "H")
    if doc["encoding"] != "hex-bitmap-le":
        raise ValueError(f"unknown residue-set encoding {doc['encoding']!r}")
    if slot is None:
        data = doc["data"]
        if not isinstance(data, str):
            raise ValueError("H data must be a hex string")
        slot = (data, 0, len(data))
    return bitmap_from_hex_range(modulus, *slot)


# The canonical layout, which tower_to_json writes and tower_from_json
# reads without handing the hex to json.loads: json.dumps(doc, indent=2)
# + "\n", where after the top-level "levels" line the pair "data": "<hex>"
# occurs once per level, as that level's H data, and nowhere else.  The
# writer puts "levels" last, and no caller value (oracle, config) can
# produce that line or a pair after it: json escapes every newline and
# quote in a string and indents nested keys deeper, and a config's own
# "data": "" pairs sit before the line.
# Writing: each level's H data is dumped as "" and the hex spliced in after,
# so json's escaper never scans megabytes of hex that need no escaping.  The
# hex goes in one chunk at a time, appended with += to the one local
# document str, which CPython resizes in place while nothing else refers to
# it; so a level's hex is never held whole beside the document, as a join
# would hold it.
# Reading: each slot after the "levels" line is emptied up to its closing
# quote, only that skeleton goes through json.loads, and each level is
# decoded from its range of the document.  A slot holding a backslash (an
# escape), a skeleton that is not itself canonical, or slots that are not
# exactly the levels' H data make another layout, and json.loads reads the
# document whole.
_DATA_OPEN = '"data": "'
_DATA_SLOT = _DATA_OPEN + '"'
_LEVELS_LINE = '\n  "levels": ['


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
                "H": {"encoding": "hex-bitmap-le", "data": ""},
                "densityA": str(lv.density_a),
                "L": str(lv.sum_lower),
                "U": str(lv.sum_upper),
            }
            for lv in t.levels
        ],
    }
    text = json.dumps(doc, indent=2) + "\n"
    cut = text.index(_LEVELS_LINE)
    pieces = text[cut:].split(_DATA_SLOT)
    out = text[:cut] + pieces[0]
    for lv, piece in zip(t.levels, pieces[1:], strict=True):
        out += _DATA_OPEN
        for chunk in bitmap_hex_chunks(lv.H):
            out += chunk
        out += '"' + piece
    return out


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
        return parse_rational(value)
    except ValueError as e:
        raise ValueError(f"{what}: {e}") from e


def _canonical_slots(text: str) -> tuple[dict, list[tuple[int, int]]] | None:
    """The document and each level's hex range, for a ``text`` in the
    canonical layout: the hex slots after the "levels" line are emptied,
    and only that skeleton goes through ``json.loads``.  None for a slot
    holding a backslash or any other layout."""
    cut = text.find(_LEVELS_LINE)
    if cut < 0:
        return None
    pieces, spans, pos = [text[:cut]], [], cut
    while (start := text.find(_DATA_OPEN, pos)) >= 0:
        start += len(_DATA_OPEN)
        stop = text.find('"', start)
        if stop < 0 or text.find("\\", start, stop) >= 0:
            return None
        pieces.append(text[pos:start])
        spans.append((start, stop))
        pos = stop
    pieces.append(text[pos:])
    skeleton = "".join(pieces)
    try:
        doc = json.loads(skeleton)
        if json.dumps(doc, indent=2) + "\n" != skeleton:
            return None
    except (ValueError, RecursionError):
        return None
    # every "data": "" of a canonical dump is a real pair, and each span is
    # one after the "levels" line; so with one per level, they are the
    # levels' H data, in order
    levels = doc.get("levels") if isinstance(doc, dict) else None
    if not (isinstance(levels, list) and len(levels) == len(spans)
            and all(isinstance(lv, dict) and isinstance(lv.get("H"), dict)
                    and lv["H"].get("data") == "" for lv in levels)):
        return None
    return doc, spans


def tower_from_json(text: str) -> tuple[Tower, dict | None]:
    """Parse and validate a tower document; any malformation is a ValueError.
    A document in the canonical layout is read by ``_canonical_slots``,
    any other by ``json.loads``, to the same tower and config."""
    canonical = _canonical_slots(text)
    if canonical is None:
        try:
            doc = json.loads(text)
        except RecursionError as e:   # json's decoder recurses once per nesting level
            raise ValueError("tower JSON nests too deeply") from e
        spans = None
    else:
        doc, spans = canonical
    _require(doc, ("schema", "alpha", "oracle", "exact", "trivial", "levels"), "tower")
    if doc["schema"] != SCHEMA:
        raise ValueError(f"unsupported tower schema {doc['schema']!r}")
    if not isinstance(doc["oracle"], str):
        raise ValueError(f"'oracle' must be a string, got {doc['oracle']!r}")
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
            H=_decode_residue_set(modulus, lvdoc["H"],
                                  None if spans is None else (text, *spans[n - 1])),
            h=h,
            k_chosen=k,
            density_a=_rational(lvdoc["densityA"], f"{what} densityA"),
            sum_lower=_rational(lvdoc["L"], f"{what} L"),
            sum_upper=_rational(lvdoc["U"], f"{what} U"),
        ))
    tower = Tower(alpha=_rational(doc["alpha"], "alpha"), oracle_spec=doc["oracle"],
                  exact=doc["exact"], levels=levels)
    return tower, doc.get("config")
