"""Exact algebra of periodic integer sets (finite unions of arithmetic
progressions), with exact rational densities.

A :class:`ResidueSet` with modulus ``k`` and residues ``H`` denotes the
subset ``k*N + H`` of the non-negative integers, and two residue sets are
equal when they denote the same integers.  All densities are
:class:`fractions.Fraction`; no floats appear anywhere in this module.

Residue sets are dense uint8 bitmaps.  A modulus above ``DENSE_LIMIT``
(``2**28``, which every tower modulus ``n! <= 11!`` fits) is refused with
:class:`ResourceLimitError`.

``sumset_mod`` and ``min_plus_mod`` are one integer algorithm in two
semirings, OR on bitmaps and min on tables (``_peel_shift``): shift when one
operand is small, else peel, at any modulus, a period ``k/q`` (prime ``q``)
off an operand that has one up to a few residues, folding the other operand
down to ``k/q``.  An operand with no layer is shifted below ``2**14`` and
refused with :class:`ResourceLimitError` from there on.  The verifier takes
the min case for the least member of A + B in each class.
Tower operands always peel: level n is level n − 1 tiled plus at most n − 1
classes.  The kernel takes its operands in the order it is handed them and
counts nothing it is not handed: each sparse/dense choice is read off a
listing (``_sparse_members``) that lists live entries block by block,
skipping the blocks that hold none, and gives up once it passes its limit,
so an 11-residue cover of ``11!`` is not scanned in full and a dense one
is refused after one block.

A rotated table is a :class:`Rotations`, which applies the one
sparse/dense rule: a table with at most one live entry in ``_SPARSE_RATIO``
is scattered, once per combine, at its listed entries shifted, so its
rotations cost its entries, not the modulus; a denser one is rotated.  The
peel combines its excess rotations through it, and the tower builder and
checker count each candidate class's gain ``|roll(cover, h) ∖ state|``
through it, gathered for a sparse cover and compared in one pass for a
dense one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "ResourceLimitError",
    "DENSE_LIMIT",
    "check_budget",
    "factorize",
    "divisors",
    "ResidueSet",
    "union",
    "intersect",
    "affine",
    "sumset_mod",
    "min_plus_mod",
    "Rotations",
    "rebase",
    "tile_periodic",
    "combine_rotated",
    "canonicalize",
    "naturals",
    "bitmap_hex",
    "bitmap_from_hex",
    "dumps_periodic",
    "loads_periodic",
]

DENSE_LIMIT = 1 << 28

# _peel_shift: shift (OR or min) when an operand has at most this many
# residues; else a periodic peel when it has at most this many residues off
# a period k/q; else, for an operand with no such layer, a shift below
# _PEEL_MIN_MODULUS and a refusal from there on
_SHIFT_MAX = 64
_PEEL_MIN_MODULUS = 1 << 14
# _sparse_members lists a bitmap or table in blocks of this many entries
_BLOCK = 1 << 16
# Rotations: a bitmap or table that lists at most one live entry in this many
# is scattered (or gathered) instead of rotated; a scatter over at most
# _SHIFT_MAX shifts then lists at most k/8 targets
_SPARSE_RATIO = 512


class ResourceLimitError(Exception):
    """An operation would exceed the memory budget."""


def check_budget(modulus: int) -> None:
    """Refuse a modulus no bitmap holds: below 1 with ``ValueError``, past
    ``DENSE_LIMIT`` bytes with :class:`ResourceLimitError`."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if modulus > DENSE_LIMIT:
        raise ResourceLimitError(
            f"modulus {modulus} exceeds the dense budget {DENSE_LIMIT}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization ``{p: e}`` of ``n >= 1``, primes ascending.

    Trial division: a modulus in budget is at most ``2**28``, so the trial
    divisors stop at ``2**14``.
    """
    if n < 1:
        raise ValueError(f"can only factorize positive integers, got {n}")
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = 1
    return factors


def divisors(n: int) -> list[int]:
    """The divisors of ``n >= 1`` in ascending order (``canonicalize`` takes
    the first that is a period as the smallest)."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


class ResidueSet:
    """The set ``modulus * N + residues``, its residues in ``[0, modulus)``
    stored as a uint8 bitmap (no residues = the empty set)."""

    __slots__ = ("modulus", "_bits")

    def __init__(self, modulus: int, residues: Iterable[int] = (), *,
                 _bits: np.ndarray | None = None):
        check_budget(modulus)
        self.modulus = int(modulus)
        if _bits is not None:
            if _bits.shape != (modulus,):
                raise ValueError(
                    f"bitmap of shape {_bits.shape} does not match modulus {modulus}")
            self._bits = np.ascontiguousarray(_bits, dtype=np.uint8)
            return
        bits = np.zeros(modulus, dtype=np.uint8)
        if isinstance(residues, np.ndarray):
            bits[residues.astype(np.int64) % modulus] = 1
        else:
            for r in residues:
                bits[r % modulus] = 1
        self._bits = bits

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "ResidueSet":
        return cls(bits.shape[0], _bits=bits)

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return int(np.count_nonzero(self._bits))

    def __contains__(self, r: int) -> bool:
        return bool(self._bits[r % self.modulus])

    def __iter__(self) -> Iterator[int]:
        return iter(self.residues())

    def residues(self) -> list[int]:
        """Sorted list of members."""
        return np.nonzero(self._bits)[0].tolist()

    def bits(self) -> np.ndarray:
        """The 0/1 bitmap (shared, not copied)."""
        return self._bits

    def density(self) -> Fraction:
        return Fraction(len(self), self.modulus)

    def member(self, x: int) -> bool:
        if x < 0:
            raise ValueError("periodic sets live on the non-negative integers")
        return x % self.modulus in self

    def is_empty(self) -> bool:
        return not self._bits.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResidueSet):
            return NotImplemented
        a, b = self, other
        if a.modulus != b.modulus:
            a, b = canonicalize(a), canonicalize(b)
        return a.modulus == b.modulus and bool(np.array_equal(a._bits, b._bits))

    def __hash__(self):
        c = canonicalize(self)
        return hash((c.modulus, c._bits.tobytes()))

    def __repr__(self):
        rs = self.residues()
        shown = rs if len(rs) <= 12 else rs[:12] + ["..."]
        return f"ResidueSet(mod={self.modulus}, {{{', '.join(map(str, shown))}}})"

    def issubset(self, other: "ResidueSet") -> bool:
        if self.modulus != other.modulus:
            raise ValueError("issubset requires equal moduli")
        return not np.any(self._bits > other._bits)

    def discard(self, r: int) -> "ResidueSet":
        out = self._bits.copy()
        out[r % self.modulus] = 0
        return ResidueSet.from_bits(out)


def naturals() -> ResidueSet:
    """All of N."""
    return ResidueSet(1, [0])


def rebase(p: ResidueSet, m: int) -> ResidueSet:
    """The same set re-expressed with modulus ``m`` (``p.modulus | m``)."""
    k = p.modulus
    if m % k != 0:
        raise ValueError(f"cannot rebase modulus {k} to non-multiple {m}")
    if m == k:
        return p
    check_budget(m)
    return ResidueSet.from_bits(tile_periodic(p.bits(), m))


def tile_periodic(bits: np.ndarray, length: int) -> np.ndarray:
    """Indicator of a period-``len(bits)`` set on ``[0, length)``, for
    ``len(bits) >= 1``: ``np.tile`` of the period's first ``length``
    entries, cut to ``length``.  (``np.resize`` concatenates a tuple of
    ``⌈length/len(bits)⌉`` references to ``bits``, a million of them for
    one bit tiled to 10**6.)"""
    return np.tile(bits[:length], -(-length // bits.shape[0]))[:length]


def _common_bits(p: ResidueSet, q: ResidueSet) -> tuple[np.ndarray, np.ndarray]:
    m = math.lcm(p.modulus, q.modulus)
    return rebase(p, m).bits(), rebase(q, m).bits()


def union(p: ResidueSet, q: ResidueSet) -> ResidueSet:
    a, b = _common_bits(p, q)
    return ResidueSet.from_bits(a | b)


def intersect(p: ResidueSet, q: ResidueSet) -> ResidueSet:
    a, b = _common_bits(p, q)
    return ResidueSet.from_bits(a & b)


def affine(p: ResidueSet, k: int, h: int) -> ResidueSet:
    """Periodic normal form of ``k*P + h``.

    The result has modulus ``k * p.modulus`` and density ``p.density() / k``.
    For ``h >= k * p.modulus`` the true image differs from the returned
    periodic set in finitely many small elements; membership agrees from
    ``h`` onward and the density is exact either way.
    """
    if k < 1:
        raise ValueError(f"scale factor must be positive, got {k}")
    if h < 0:
        raise ValueError(f"offset must be non-negative, got {h}")
    m = k * p.modulus
    check_budget(m)
    bits = np.zeros(m, dtype=np.uint8)
    idx = np.nonzero(p.bits())[0].astype(np.int64) * k + (h % m)
    bits[idx % m] = 1
    return ResidueSet.from_bits(bits)


def sumset_mod(p: ResidueSet, c: ResidueSet) -> ResidueSet:
    """``{(h + r) mod k : h in p, r in c}``.

    When ``c`` is the residue cover of a set ``Y`` modulo ``k``, this
    realizes the sumset ``P + Y`` as a finite union of APs.

    The OR case of ``_peel_shift``: one operand X is shifted over or
    peeled, and the other is the table, rotated or, when it lists as
    sparse, scattered.  ``p`` is tried as X first and ``c`` only when
    ``_peel_shift`` refuses ``p``; each operand is counted when it is
    tried, and when both are refused :class:`ResourceLimitError` is
    raised.

    A tower level is its predecessor tiled plus at most n − 1 classes, so
    ``H ∖ {h}`` at ``n!``, passed first, peels level by level down to the
    shift sizes, shifting only a few residues per layer, and its cover is
    never counted.  Which path runs depends on the operands' bitmaps and
    their order alone; the result does not.
    """
    k = p.modulus
    if c.modulus != k:
        raise ValueError("sumset_mod operands must share a modulus (rebase first)")
    for x, y in ((p, c), (c, p)):
        out = _peel_shift(np.bitwise_or, x.bits(), len(x), y.bits(), 0)
        if out is not None:
            return ResidueSet.from_bits(out)
    raise ResourceLimitError(
        f"neither operand of a sumset mod {k} has a periodic layer to peel")


def min_plus_mod(p: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``t[r] = min{values[c] : p[(r − c) mod k]}`` for every residue r mod k,
    for a 0/1 bitmap ``p`` and an integer table ``values``, both of length
    k; where no class c qualifies, t[r] is the dtype's maximum.

    The min case of ``_peel_shift``: ``sumset_mod`` with OR replaced by
    min, and the table's live entries those below the dtype's maximum.  A
    p of more than ``_SHIFT_MAX`` members with no periodic layer at a
    modulus from ``_PEEL_MIN_MODULUS`` up raises
    :class:`ResourceLimitError`; every tower period peels.
    """
    size = int(np.count_nonzero(p))
    out = _peel_shift(np.minimum, p, size, values, np.iinfo(values.dtype).max)
    if out is None:
        raise ResourceLimitError(
            f"a period of {size} residues mod {p.shape[0]} "
            "has no periodic layer to peel")
    return out


def _peel_shift(op: np.ufunc, p: np.ndarray, size: int, table: np.ndarray,
                fill: int) -> np.ndarray | None:
    """``out[r] = op{table[(r − c) mod k] : p[c]}`` for a 0/1 bitmap ``p``
    of ``size`` members and a table of one length k whose entries other
    than ``fill`` are live, for a semiring sum ``op`` (OR on bitmaps, min
    on integer tables); ``fill`` where p is empty.

    - *shift*: when p has at most ``_SHIFT_MAX`` members, op over the
      rotations of ``table`` by each of them;
    - *peel*: otherwise, at any modulus, when p has a periodic layer
      ``(q, f, E)``: the tiling of the same sum at ``k/q`` of f with
      ``table`` folded by ``op.reduce`` mod ``k/q``, combined with the
      rotations of ``table`` by each residue of E;
    - a p with no layer is shifted over when k is below
      ``_PEEL_MIN_MODULUS``, and from there on the result is None.

    Each combine of rotations lists its own table (:class:`Rotations`), so
    no count of the table is carried down the peel.  Each p, and each core
    peeled from it, has its layer searched once.
    """
    k = p.shape[0]
    if size > _SHIFT_MAX:
        layer = _periodic_layer(p, size)
        if layer is not None:
            q, core, excess = layer
            folded = op.reduce(table.reshape(q, k // q), axis=0)
            inner = _peel_shift(op, core, (size - excess.size) // q, folded, fill)
            if inner is None:
                return None
            return Rotations(op, table, fill).combine(np.tile(inner, q), excess)
        if k >= _PEEL_MIN_MODULUS:
            return None
    return Rotations(op, table, fill).combine(
        np.full(k, fill, dtype=table.dtype), _sparse_members(np.bitwise_or, p, 0, size))


class Rotations:
    """A table of length k, to be combined by ``op`` (OR on bitmaps, min on
    integer tables) at rotations; its entries other than ``fill`` are live.

    The table is listed once, here: one that lists at most one live entry
    in ``_SPARSE_RATIO`` keeps its ``entries`` and is scattered or
    gathered at them shifted, and a denser one, refused by the listing
    (``entries`` None), is rotated or compared in whole passes.  Both
    paths give the same results.
    """

    __slots__ = ("op", "table", "entries")

    def __init__(self, op: np.ufunc, table: np.ndarray, fill: int):
        self.op, self.table = op, table
        self.entries = _sparse_members(op, table, fill, table.shape[0] // _SPARSE_RATIO)

    def _targets(self, shifts: np.ndarray) -> np.ndarray:
        k = self.table.shape[0]
        targets = (self.entries[None, :] + shifts[:, None]).ravel()
        targets[targets >= k] -= k
        return targets

    def combine(self, out: np.ndarray, shifts: np.ndarray) -> np.ndarray:
        """``out`` combined in place by ``op`` with the table rotated by each
        of ``shifts``: one ``op.at`` over ``(entry + shift) mod k`` for a
        listed table, one rotation per shift for a dense one."""
        if self.entries is None:
            for s in shifts.tolist():
                combine_rotated(self.op, out, out, self.table, s)
            return out
        self.op.at(out, self._targets(shifts), np.tile(self.table[self.entries], shifts.size))
        return out

    def gain(self, base: np.ndarray, shift: int) -> int:
        """``|roll(table, shift) ∖ base|`` for a 0/1 table and bitmap
        ``base`` of its length: the listed entries that ``base`` lacks at
        their targets, gathered, or one compare of each of the two rotated
        pieces of a dense table."""
        if self.entries is None:
            k = self.table.shape[0]
            return (int(np.count_nonzero(self.table[:k - shift] > base[shift:]))
                    + int(np.count_nonzero(self.table[k - shift:] > base[:shift])))
        targets = self._targets(np.array([shift]))
        return self.entries.size - int(np.count_nonzero(base[targets]))


def combine_rotated(op: np.ufunc, out: np.ndarray, src: np.ndarray, bits: np.ndarray,
                    shift: int) -> None:
    """``out = op(src, roll(bits, shift))`` for a binary ufunc ``op`` (OR on
    bitmaps, min on tables) and ``0 <= shift < len(bits)``; ``src`` may be
    ``out`` itself."""
    k = bits.shape[0]
    op(src[shift:], bits[: k - shift], out=out[shift:])
    op(src[:shift], bits[k - shift:], out=out[:shift])


def _periodic_layer(x: np.ndarray, size: int) -> tuple[int, np.ndarray, np.ndarray] | None:
    """``(q, f, E)`` peeling a period ``k/q`` off the bitmap ``x`` of length k
    with ``size`` members.

    For a prime ``q | k``, ``f`` is the AND-fold of x mod ``k/q`` (the
    residues whose every lift lies in x) and ``E`` lists the members of x
    outside the tiling of ``f``: ``|E| = size - q |f|``.  The primes are
    tried from the largest down, and the first whose E holds at most
    ``_SHIFT_MAX`` residues is taken; None when none does.  E is listed row
    by row mod ``k/q``, and not at all when it is empty.  ``f`` is empty
    only for an x of at most ``_SHIFT_MAX`` members, which the dispatch
    shifts first.
    """
    k = x.shape[0]
    for q in sorted(factorize(k), reverse=True):
        core = np.bitwise_and.reduce(x.reshape(q, k // q), axis=0)
        excess = size - q * int(np.count_nonzero(core))
        if excess <= _SHIFT_MAX:
            break
    else:
        return None
    if excess == 0:
        return q, core, np.empty(0, dtype=np.intp)
    period = k // q
    return q, core, np.concatenate([
        _sparse_members(np.bitwise_or, row > core, 0, excess) + i * period
        for i, row in enumerate(x.reshape(q, period))])


def _sparse_members(op: np.ufunc, x: np.ndarray, fill: int,
                    limit: int) -> np.ndarray | None:
    """``np.flatnonzero(x != fill)`` when it has at most ``limit`` entries,
    else None, for ``x`` a 0/1 or bool bitmap with ``op`` OR and ``fill``
    0, or a min table with ``op`` min and ``fill`` its dtype's maximum.

    The first ``_BLOCK`` entries are counted first, so a dense x is
    refused after one block, with no index listed.  Past them an
    ``op.reduce`` per block finds the blocks that hold an entry other than
    fill, and only those and the tail are listed, each added to the count
    as it comes, with no mask as long as x.  That costs a few ms at
    ``11!`` where ``flatnonzero`` spends about 100 ms.
    """
    k = x.shape[0]
    head = x[:_BLOCK] != fill
    count = int(np.count_nonzero(head))
    if count > limit:
        return None
    whole = max(_BLOCK, k - k % _BLOCK)
    occupied = np.flatnonzero(
        op.reduce(x[_BLOCK:whole].reshape(-1, _BLOCK), axis=1) != fill) + 1
    if count + occupied.size > limit:
        return None
    parts = [np.flatnonzero(head)]
    for b in (occupied * _BLOCK).tolist() + [whole]:
        parts.append(np.flatnonzero(x[b:b + _BLOCK] != fill) + b)
        count += parts[-1].size
        if count > limit:
            return None
    return np.concatenate(parts)


def canonicalize(p: ResidueSet) -> ResidueSet:
    """Smallest-period representation of the same set."""
    k = p.modulus
    if p.is_empty():
        return ResidueSet(1)
    if k == 1:
        return p
    bits = p.bits()
    for d in divisors(k):
        if d == k:
            break
        if np.array_equal(bits.reshape(k // d, d), np.broadcast_to(bits[:d], (k // d, d))):
            return ResidueSet.from_bits(bits[:d].copy())
    return p


# ---------------------------------------------------------------------------
# packed-hex bitmaps, shared by set files and tower JSON

def bitmap_hex(bits: np.ndarray) -> str:
    """A 0/1 bitmap packed 8 residues a byte, residue i at bit ``i % 8``
    (little-endian bits) of byte ``i // 8``, as lower-case hex."""
    return np.packbits(bits, bitorder="little").tobytes().hex()


def bitmap_from_hex(k: int, text: str) -> np.ndarray:
    """The length-``k`` 0/1 bitmap that ``bitmap_hex`` writes as ``text``:
    exactly ``2·⌈k/8⌉`` lower-case hex digits, no whitespace, and no
    padding bit set past k; anything else, or ``k < 1``, is a ValueError.
    ``bytes.fromhex`` also takes upper-case digits and whitespace between
    bytes: with the length pinned, whitespace leaves it short, and the
    upper-case digits are looked for by substring scans."""
    if k < 1:
        raise ValueError(f"modulus must be positive, got {k}")
    digits = 2 * -(-k // 8)
    wrong = ValueError(f"bitmap for modulus {k} must be {digits} lower-case hex digits")
    if len(text) != digits or any(c in text for c in "ABCDEF"):
        raise wrong
    try:
        packed = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
    except ValueError:
        raise wrong from None
    if 2 * packed.shape[0] != digits:
        raise wrong
    if k % 8 and packed[-1] >> (k % 8):
        raise ValueError(f"bitmap sets padding bits past modulus {k}")
    # unpackbits with a count returns an owned array of exactly k entries
    return np.unpackbits(packed, count=k, bitorder="little")


# ---------------------------------------------------------------------------
# text file format:
#   line 1: "modulus <k>"
#   line 2: "residues <comma-list>"  or  "bitmap <bitmap_hex>"

_RESIDUE_LIST_MAX = 1024


def dumps_periodic(p: ResidueSet) -> str:
    lines = [f"modulus {p.modulus}"]
    if len(p) <= _RESIDUE_LIST_MAX:
        lines.append("residues " + ",".join(map(str, p.residues())))
    else:
        lines.append("bitmap " + bitmap_hex(p.bits()))
    return "\n".join(lines) + "\n"


def loads_periodic(text: str) -> ResidueSet:
    """The set a ``dumps_periodic`` text stands for.  Residues must lie in
    ``[0, k)``, and a bitmap must be one ``bitmap_from_hex`` takes; any
    other text is a ``ValueError``."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("modulus "):
        raise ValueError("periodic-set file must start with 'modulus <k>'")
    k = int(lines[0].split(maxsplit=1)[1])
    if len(lines) < 2:
        raise ValueError("missing residues/bitmap line")
    tag, _, payload = lines[1].partition(" ")
    payload = payload.strip()
    if tag == "residues":
        rs = [int(t) for t in payload.split(",") if t.strip()] if payload else []
        outside = [r for r in rs if not 0 <= r < k]
        if outside:
            raise ValueError(f"residue {outside[0]} lies outside [0, {k})")
        return ResidueSet(k, rs)
    if tag == "bitmap":
        return ResidueSet.from_bits(bitmap_from_hex(k, payload))
    raise ValueError(f"unknown payload tag {tag!r}")
