"""Exact algebra of periodic integer sets (finite unions of arithmetic
progressions), with exact rational densities.

A :class:`ResidueSet` with modulus ``k`` and residues ``H`` denotes the
subset ``k*N + H`` of the non-negative integers, and two residue sets are
equal when they denote the same integers.  All densities are
:class:`fractions.Fraction`; no floats appear anywhere in this module.

A residue set is one array of ``⌈k/64⌉`` little-endian 64-bit words
(dtype ``'<u8'``): residue i is bit ``i % 64`` of word ``i // 64``, and the
bits past k are clear, so the words' first ``⌈k/8⌉`` bytes are the packed
bitmap that set files and tower JSON hold as hex.  Whole-set passes (tile,
fold, count, rotate) run on words; a tile ``np.tile``s the words of the
periods that end on a word boundary.  Building those periods, and the fold
at a modulus that is not a multiple of 64, shift one Python integer
(``_to_int``) and write the words back (``_from_int``).  A 0/1 array
enters through ``ResidueSet.from_bits`` and leaves through
``ResidueSet.window`` only.  A modulus above ``DENSE_LIMIT`` (``2**28``,
which every tower modulus ``n! <= 11!`` fits) is refused with
:class:`ResourceLimitError`.

``rotated``, a set's integer rotated once per shift and ORed, is the one
integer rotation: ``check_claimA`` sums A's classes with it, and
``sumset_mod`` is its larger operand rotated by each member of the other.

The tower builder (``step``) alone rotates through a :class:`Rotations`,
which applies the one sparse/dense rule, read off one listing
(``_word_members``): a single pass over the words that lists the set bits,
or gives up past its limit.  A set with at most one member in
``_SPARSE_RATIO``, or at a modulus that is not a multiple of 64, is
scattered at its members shifted, so a rotation costs its members, not
the modulus; a denser one has its words rolled.  ``step`` combines each
chosen class's rotated cover and counts each candidate's gain
``|roll(cover, h) ∖ state|`` through it, gathered for a listed cover and
counted in one pass for a dense one.
"""

from __future__ import annotations

import binascii
import functools
import math
import operator
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
    "word_count",
    "tile_words",
    "clear_bits",
    "fold",
    "union",
    "intersect",
    "affine",
    "rotated",
    "sumset_mod",
    "Rotations",
    "rebase",
    "combine_rotated",
    "canonicalize",
    "naturals",
    "bitmap_hex_chunks",
    "bitmap_hex",
    "bitmap_from_hex",
    "bitmap_from_hex_range",
    "dumps_periodic",
    "loads_periodic",
]

DENSE_LIMIT = 1 << 28

# Rotations: words that list at most one member in this many are
# scattered (or gathered) instead of rotated
_SPARSE_RATIO = 512

# packed-hex bitmaps are written and read this many hex digits (256 KiB of
# words) at a time.  Smaller chunks are not cheaper: at 2**17 and 2**18
# digits glibc's realloc copied the growing 11 MB document of a depth-11
# tower once more, late, and perfbench's tower-sparse peak RSS read 92 MB
# against 82 MB (2-CPU Xeon, Python 3.11.7)
_HEX_CHUNK = 1 << 19

_WORD = np.dtype("<u8")
_ONE = np.uint64(1)


class ResourceLimitError(Exception):
    """An operation would exceed the memory budget."""


def check_budget(modulus: int) -> None:
    """Refuse a modulus no residue set holds: below 1 with ``ValueError``,
    past ``DENSE_LIMIT`` residues with :class:`ResourceLimitError`."""
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


# ---------------------------------------------------------------------------
# words: bit i of a set is bit i % 64 of word i // 64

def word_count(k: int) -> int:
    """The number of words that hold k residues."""
    return -(-k // 64)


def _bit(positions: np.ndarray) -> np.ndarray:
    return np.left_shift(_ONE, (positions & 63).astype(np.uint64))


def _set_bits(words: np.ndarray, positions: np.ndarray) -> None:
    np.bitwise_or.at(words, positions >> 6, _bit(positions))


def clear_bits(words: np.ndarray, positions: np.ndarray) -> None:
    """Clear the bits of ``words`` at ``positions``, in place."""
    np.bitwise_and.at(words, positions >> 6, ~_bit(positions))


def _get_bits(words: np.ndarray, positions: np.ndarray) -> np.ndarray:
    return (words[positions >> 6] >> (positions & 63).astype(np.uint64)) & _ONE


def _count(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


def _head(words: np.ndarray, n: int) -> np.ndarray:
    """A copy of the first n bits of ``words``, the bits past n clear."""
    out = words[:word_count(n)].copy()
    if n % 64:
        out[-1] &= (_ONE << np.uint64(n % 64)) - _ONE
    return out


def _to_int(words: np.ndarray) -> int:
    """The bits of ``words`` as one integer, residue i at bit i."""
    return int.from_bytes(words.tobytes(), "little")


def _from_int(x: int, n: int) -> np.ndarray:
    """The words of an integer below ``2**n``."""
    return np.frombuffer(x.to_bytes(8 * word_count(n), "little"), dtype=_WORD).copy()


def tile_words(words: np.ndarray, k: int, q: int) -> np.ndarray:
    """The words of a k-residue period repeated q times, a fresh array: a
    block of g = 64 / gcd(k, 64) periods, which ends on a word boundary (or
    all q periods, when q <= g), is built as one integer, doubled until it
    covers them; the block's words are tiled q // g times and the head of
    one more block holds the q mod g periods left over.  Nothing is built
    when g = 1."""
    g = 64 // math.gcd(k, 64)
    if g == 1:
        return np.tile(words, q)
    n, tiled, length = k * min(g, q), _to_int(words), k
    while length < n:
        tiled |= tiled << length
        length *= 2
    block = _from_int(tiled & ((1 << n) - 1) if length > n else tiled, n)
    if q <= g:
        return block
    out = np.empty(word_count(k * q), dtype=_WORD)
    whole = q // g * block.size
    out[:whole].reshape(q // g, block.size)[:] = block
    out[whole:] = _head(block, q % g * k)
    return out


class ResidueSet:
    """The set ``modulus * N + residues``, its residues in ``[0, modulus)``
    stored as words (no residues = the empty set)."""

    __slots__ = ("modulus", "_words")

    def __init__(self, modulus: int, residues: Iterable[int] = ()):
        check_budget(modulus)
        self.modulus = k = int(modulus)
        if isinstance(residues, np.ndarray):
            positions = residues.astype(np.int64) % k
        else:
            positions = np.fromiter((r % k for r in residues), dtype=np.int64)
        self._words = np.zeros(word_count(k), dtype=_WORD)
        _set_bits(self._words, positions)

    @classmethod
    def from_words(cls, modulus: int, words: np.ndarray) -> "ResidueSet":
        """The set whose words are ``words``, shared, not copied, and never
        written after: the one way packed words become a residue set.
        Words of another dtype or length, or with a padding bit set past
        the modulus, are a ValueError."""
        check_budget(modulus)
        k = int(modulus)
        if words.dtype != _WORD or words.shape != (word_count(k),):
            raise ValueError(f"words of dtype {words.dtype} and shape {words.shape} "
                             f"do not hold modulus {k}")
        if k % 64 and words[-1] >> np.uint64(k % 64):
            raise ValueError(f"words set padding bits past modulus {k}")
        p = cls.__new__(cls)
        p.modulus, p._words = k, np.ascontiguousarray(words)
        return p

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "ResidueSet":
        """The set of length-k 0/1 array (uint8 or bool) ``bits``, packed
        into words: the one way a 0/1 array becomes a residue set."""
        words = np.zeros(word_count(bits.shape[0]), dtype=_WORD)
        packed = np.packbits(bits, bitorder="little")
        words.view(np.uint8)[:packed.size] = packed
        return cls.from_words(bits.shape[0], words)

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return _count(self._words)

    def __contains__(self, r: int) -> bool:
        r %= self.modulus
        return bool((self._words[r >> 6] >> np.uint64(r & 63)) & _ONE)

    def __iter__(self) -> Iterator[int]:
        return iter(self.residues())

    def residues(self) -> list[int]:
        """Sorted list of members."""
        return self.members(0, self.modulus).tolist()

    def members(self, start: int, stop: int) -> np.ndarray:
        """Sorted array of the members in ``[start, stop)``, for a multiple
        of 64 ``start <= stop <= modulus``."""
        if start % 64:
            raise ValueError(f"members from {start}, not a multiple of 64")
        n = stop - start
        return _word_members(_head(self._words[start // 64:], n), n) + start

    def words(self) -> np.ndarray:
        """The words (shared, not copied)."""
        return self._words

    def window(self, length: int) -> np.ndarray:
        """The 0/1 uint8 indicator of the set on ``[0, length)``, any
        length: the one way a residue set becomes a 0/1 array."""
        k = self.modulus
        bits = np.unpackbits(self._words.view(np.uint8), count=min(k, length),
                             bitorder="little")
        return np.tile(bits, -(-length // k))[:length] if length > k else bits

    def prefix(self, length: int) -> "ResidueSet":
        """The members below ``length`` as a set mod ``length``, for
        ``1 <= length <= modulus``."""
        if not 1 <= length <= self.modulus:
            raise ValueError(f"prefix length {length} outside [1, {self.modulus}]")
        return ResidueSet.from_words(length, _head(self._words, length))

    def density(self) -> Fraction:
        return Fraction(len(self), self.modulus)

    def is_empty(self) -> bool:
        return not self._words.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResidueSet):
            return NotImplemented
        a, b = self, other
        if a.modulus != b.modulus:
            a, b = canonicalize(a), canonicalize(b)
        return a.modulus == b.modulus and bool(np.array_equal(a._words, b._words))

    def __hash__(self):
        c = canonicalize(self)
        return hash((c.modulus, c._words.tobytes()))

    def __repr__(self):
        rs = self.residues()
        shown = rs if len(rs) <= 12 else rs[:12] + ["..."]
        return f"ResidueSet(mod={self.modulus}, {{{', '.join(map(str, shown))}}})"

    def discard(self, r) -> "ResidueSet":
        """The set less the residue of r, an integer or an integer array."""
        out = self._words.copy()
        clear_bits(out, np.atleast_1d(np.asarray(r % self.modulus, dtype=np.int64)))
        return ResidueSet.from_words(self.modulus, out)


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
    return ResidueSet.from_words(m, tile_words(p.words(), k, m // k))


def fold(p: ResidueSet, m: int) -> ResidueSet:
    """The residues r mod m (``m | p.modulus``) with a lift ``r + j·m`` in p.

    One OR-reduce over the rows of words when m is a multiple of 64; else
    the rows of the set's integer ORed one by one."""
    words, q = p.words(), p.modulus // m
    if m % 64 == 0:
        return ResidueSet.from_words(m, np.bitwise_or.reduce(words.reshape(q, m // 64), axis=0))
    x, mask = _to_int(words), (1 << m) - 1
    rows = ((x >> (j * m)) & mask for j in range(q))
    return ResidueSet.from_words(m, _from_int(functools.reduce(operator.or_, rows), m))


def _combine(op: np.ufunc, p: ResidueSet, q: ResidueSet) -> ResidueSet:
    """``op`` of the words of p and q rebased to their lcm m, written into
    p's tile when p is rebased: that tile is fresh, and nothing else holds
    it."""
    m = math.lcm(p.modulus, q.modulus)
    a, b = rebase(p, m).words(), rebase(q, m).words()
    return ResidueSet.from_words(m, op(a, b, out=a if m != p.modulus else None))


def union(p: ResidueSet, q: ResidueSet) -> ResidueSet:
    return _combine(np.bitwise_or, p, q)


def intersect(p: ResidueSet, q: ResidueSet) -> ResidueSet:
    return _combine(np.bitwise_and, p, q)


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
    return ResidueSet(m, p.members(0, p.modulus).astype(np.int64) * k + h % m)


def rotated(p: ResidueSet, shifts) -> ResidueSet:
    """The set ``p`` rotated by each of ``shifts`` (each in [0, k)) and
    ORed: its words as one Python integer, rotated once per shift."""
    k = p.modulus
    x, mask, out = int.from_bytes(p.words().tobytes(), "little"), (1 << k) - 1, 0
    for s in shifts:
        out |= ((x << s) | (x >> (k - s))) & mask
    return ResidueSet.from_words(k, np.frombuffer(out.to_bytes(8 * word_count(k), "little"),
                                                  dtype="<u8"))


def sumset_mod(p: ResidueSet, c: ResidueSet) -> ResidueSet:
    """``{(h + r) mod k : h in p, r in c}``.

    When ``c`` is the residue cover of a set ``Y`` modulo ``k``, this
    realizes the sumset ``P + Y`` as a finite union of APs: the operand
    with more members ``rotated`` by each member of the other.
    """
    k = p.modulus
    if c.modulus != k:
        raise ValueError("sumset_mod operands must share a modulus (rebase first)")
    fewer, more = sorted((p, c), key=len)
    return rotated(more, fewer.members(0, k).tolist())


class Rotations:
    """A residue set's words, ORed in or counted at one rotation at a
    time, for ``construction.step`` alone (never through ``rotated``).

    The words are listed once, here: a set that lists at most one member
    in ``_SPARSE_RATIO``, or at a modulus that is not a multiple of 64 (a
    tower's only at n! <= 7!), keeps its ``entries`` and is scattered or
    gathered at them shifted; a denser one, refused by the listing
    (``entries`` None), has its words rolled and is ORed or counted in
    whole passes.  Both paths give the same results.
    """

    __slots__ = ("k", "table", "entries")

    def __init__(self, table: ResidueSet):
        self.k, self.table = table.modulus, table.words()
        self.entries = _word_members(
            self.table, self.k if self.k % 64 else self.k // _SPARSE_RATIO)

    def _targets(self, shift: int) -> np.ndarray:
        targets = self.entries + shift
        targets[targets >= self.k] -= self.k
        return targets

    def _rolled(self, shift: int) -> tuple[np.ndarray, int]:
        """(t, w) with ``np.roll(t, w)`` the words rotated by ``shift``, for
        k a multiple of 64: the words roll by ``shift // 64`` once their
        bits are carried by ``shift % 64`` within the ring of words."""
        t = self.table
        w, b = divmod(shift, 64)
        if not b:
            return t, w
        carried = t << b
        carried[1:] |= t[:-1] >> (64 - b)
        carried[0] |= t[-1] >> np.uint64(64 - b)
        return carried, w

    def combine(self, out: np.ndarray, shift: int) -> None:
        """The words ``out`` ORed in place with the set rotated by
        ``shift``: bits set at ``(entry + shift) mod k`` for a listed set,
        the rolled words for a dense one."""
        if self.entries is not None:
            _set_bits(out, self._targets(shift))
        else:
            combine_rotated(out, *self._rolled(shift))

    def gain(self, base: np.ndarray, shift: int) -> int:
        """``|roll(set, shift) ∖ base|`` for the words ``base`` of the same
        modulus: the listed members whose targets ``base`` lacks, gathered,
        or one count of each of the two rolled pieces of a dense set."""
        if self.entries is not None:
            targets = self._targets(shift)
            return self.entries.size - int(np.count_nonzero(_get_bits(base, targets)))
        t, w = self._rolled(shift)
        n = t.shape[0]
        return _count(t[:n - w] & ~base[w:]) + _count(t[n - w:] & ~base[:w])


def combine_rotated(out: np.ndarray, table: np.ndarray, shift: int) -> None:
    """``out |= np.roll(table, shift)``, in place, for ``0 <= shift < len(table)``."""
    k = table.shape[0]
    out[shift:] |= table[: k - shift]
    out[:shift] |= table[k - shift:]


def _word_members(words: np.ndarray, limit: int) -> np.ndarray | None:
    """The sorted set bits of ``words`` when there are at most ``limit``,
    else None: one mask of a byte per word, counted (more than ``limit``
    non-zero words are refused), then listed, and only the non-zero words
    are unpacked."""
    mask = words != 0
    if np.count_nonzero(mask) > limit:
        return None
    nonzero = np.flatnonzero(mask)
    live = words[nonzero]
    if _count(live) > limit:
        return None
    bits = np.flatnonzero(np.unpackbits(live.view(np.uint8), bitorder="little"))
    return nonzero[bits >> 6] * 64 + (bits & 63)


def canonicalize(p: ResidueSet) -> ResidueSet:
    """Smallest-period representation of the same set: the first divisor d
    of k whose shift by d leaves the set's integer unchanged."""
    k = p.modulus
    if p.is_empty():
        return ResidueSet(1)
    if k == 1:
        return p
    x = _to_int(p.words())
    for d in divisors(k):
        if d == k:
            break
        if x >> d == x & ((1 << (k - d)) - 1):
            return p.prefix(d)
    return p


# ---------------------------------------------------------------------------
# packed-hex bitmaps, shared by set files and tower JSON

def bitmap_hex_chunks(p: ResidueSet) -> Iterator[str]:
    """The set's residues packed 8 a byte, residue i at bit ``i % 8``
    (little-endian bits) of byte ``i // 8``, as lower-case hex: the first
    ``⌈k/8⌉`` bytes of its words, read in place and yielded ``_HEX_CHUNK``
    digits at a time, so a caller that writes each chunk out never holds
    a second full-size copy of the bitmap."""
    packed = p.words().view(np.uint8)[: -(-p.modulus // 8)]
    step = _HEX_CHUNK // 2
    for start in range(0, packed.size, step):
        yield packed[start:start + step].data.hex()


def bitmap_hex(p: ResidueSet) -> str:
    """``bitmap_hex_chunks`` joined: the set's whole packed-hex bitmap."""
    return "".join(bitmap_hex_chunks(p))


def bitmap_from_hex(k: int, text: str) -> ResidueSet:
    """``bitmap_from_hex_range`` over the whole of ``text``."""
    return bitmap_from_hex_range(k, text, 0, len(text))


def bitmap_from_hex_range(k: int, text: str, start: int, stop: int) -> ResidueSet:
    """The set mod k that ``bitmap_hex`` writes as ``text[start:stop]``:
    exactly ``2·⌈k/8⌉`` lower-case hex digits, no whitespace, and no
    padding bit set past k; anything else, or ``k < 1``, is a ValueError.
    The range is decoded ``_HEX_CHUNK`` digits at a time straight into the
    zeroed words, so a caller can hand a slot of a larger document without
    cutting it out.  ``binascii.a2b_hex`` takes upper-case digits too,
    which substring scans look for, and refuses everything else that is
    not a hex digit."""
    if k < 1:
        raise ValueError(f"modulus must be positive, got {k}")
    digits = 2 * -(-k // 8)
    wrong = ValueError(f"bitmap for modulus {k} must be {digits} lower-case hex digits")
    if stop - start != digits or any(text.find(c, start, stop) >= 0 for c in "ABCDEF"):
        raise wrong
    words = np.zeros(word_count(k), dtype=_WORD)
    packed = words.view(np.uint8)[:digits // 2]
    for at in range(0, digits, _HEX_CHUNK):
        try:
            packed[at // 2:(at + _HEX_CHUNK) // 2] = np.frombuffer(
                binascii.a2b_hex(text[start + at:start + min(at + _HEX_CHUNK, digits)]),
                dtype=np.uint8)
        except ValueError:
            raise wrong from None
    if k % 8 and packed[-1] >> (k % 8):
        raise ValueError(f"bitmap sets padding bits past modulus {k}")
    return ResidueSet.from_words(k, words)


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
        lines.append("bitmap " + bitmap_hex(p))
    return "\n".join(lines) + "\n"


def loads_periodic(text: str) -> ResidueSet:
    """The set a ``dumps_periodic`` text stands for.  Residues must lie in
    ``[0, k)``, a bitmap must be one ``bitmap_from_hex`` takes, and no
    non-blank line may follow the payload line; any other text is a
    ``ValueError``."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("modulus "):
        raise ValueError("periodic-set file must start with 'modulus <k>'")
    k = int(lines[0].split(maxsplit=1)[1])
    if len(lines) < 2:
        raise ValueError("missing residues/bitmap line")
    if len(lines) > 2:
        raise ValueError("periodic-set file has a line after its residues/bitmap line")
    tag, _, payload = lines[1].partition(" ")
    payload = payload.strip()
    if tag == "residues":
        rs = [int(t) for t in payload.split(",") if t.strip()] if payload else []
        outside = [r for r in rs if not 0 <= r < k]
        if outside:
            raise ValueError(f"residue {outside[0]} lies outside [0, {k})")
        return ResidueSet(k, rs)
    if tag == "bitmap":
        return bitmap_from_hex(k, payload)
    raise ValueError(f"unknown payload tag {tag!r}")
