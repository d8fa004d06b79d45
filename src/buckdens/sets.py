"""Exact algebra of periodic integer sets (finite unions of arithmetic
progressions), with exact rational densities.

A :class:`PeriodicSet` with modulus ``k`` and residue set ``H`` denotes the
subset ``k*N + H`` of the non-negative integers.  All densities are
:class:`fractions.Fraction`; no floats appear anywhere in this module.

Residue sets are dense uint8 bitmaps.  A modulus above ``DENSE_LIMIT``
(``2**28``, which every tower modulus ``n! <= 11!`` fits) is refused with
:class:`ResourceLimitError`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from . import kernels

__all__ = [
    "ResourceLimitError",
    "DENSE_LIMIT",
    "check_budget",
    "factorize",
    "divisors",
    "ResidueSet",
    "PeriodicSet",
    "make_periodic",
    "density",
    "union",
    "intersect",
    "complement",
    "affine",
    "sumset_mod",
    "rebase",
    "member",
    "canonicalize",
    "naturals",
    "dumps_periodic",
    "loads_periodic",
]

DENSE_LIMIT = 1 << 28

# sumset strategy: shift-OR when the smaller operand has at most this many
# residues (or the modulus is tiny), FFT support convolution otherwise
_SHIFT_MAX = 64
_FFT_MIN_MODULUS = 1 << 14


class ResourceLimitError(Exception):
    """An operation would exceed the memory budget."""


def check_budget(modulus: int) -> None:
    """Refuse a modulus whose bitmap would exceed ``DENSE_LIMIT`` bytes."""
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
    """A subset of ``[0, modulus)``, stored as a uint8 bitmap."""

    __slots__ = ("modulus", "_bits")

    def __init__(self, modulus: int, residues: Iterable[int] = (), *,
                 _bits: np.ndarray | None = None):
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResidueSet):
            return NotImplemented
        return (self.modulus == other.modulus
                and bool(np.array_equal(self._bits, other._bits)))

    def __hash__(self):
        return hash((self.modulus, tuple(self.residues())))

    def __repr__(self):
        rs = self.residues()
        shown = rs if len(rs) <= 12 else rs[:12] + ["..."]
        return f"ResidueSet(mod={self.modulus}, {{{', '.join(map(str, shown))}}})"

    def issubset(self, other: "ResidueSet") -> bool:
        if self.modulus != other.modulus:
            raise ValueError("issubset requires equal moduli")
        return not np.any(self._bits > other._bits)

    # -- same-modulus algebra ----------------------------------------------

    def union_same(self, other: "ResidueSet") -> "ResidueSet":
        self._check_same(other)
        return ResidueSet.from_bits(self._bits | other._bits)

    def intersect_same(self, other: "ResidueSet") -> "ResidueSet":
        self._check_same(other)
        return ResidueSet.from_bits(self._bits & other._bits)

    def complement_same(self) -> "ResidueSet":
        return ResidueSet.from_bits(np.uint8(1) - self._bits)

    def discard(self, r: int) -> "ResidueSet":
        out = self._bits.copy()
        out[r % self.modulus] = 0
        return ResidueSet.from_bits(out)

    def _check_same(self, other: "ResidueSet") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}")


class PeriodicSet:
    """The set ``modulus * N + residues`` (empty residues = empty set)."""

    __slots__ = ("modulus", "residues")

    def __init__(self, modulus: int, residues: ResidueSet):
        if residues.modulus != modulus:
            raise ValueError("residue set modulus disagrees with period")
        self.modulus = int(modulus)
        self.residues = residues

    def density(self) -> Fraction:
        return Fraction(len(self.residues), self.modulus)

    def member(self, x: int) -> bool:
        if x < 0:
            raise ValueError("periodic sets live on the non-negative integers")
        return (x % self.modulus) in self.residues

    def is_empty(self) -> bool:
        return len(self.residues) == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicSet):
            return NotImplemented
        a, b = canonicalize(self), canonicalize(other)
        return a.modulus == b.modulus and a.residues == b.residues

    def __hash__(self):
        c = canonicalize(self)
        return hash((c.modulus, c.residues))

    def __repr__(self):
        return f"PeriodicSet(mod={self.modulus}, residues={self.residues.residues()[:12]}...)" \
            if len(self.residues) > 12 else \
            f"PeriodicSet(mod={self.modulus}, residues={self.residues.residues()})"


def naturals() -> PeriodicSet:
    """All of N."""
    return make_periodic(1, [0])


def make_periodic(k: int, hs: Iterable[int]) -> PeriodicSet:
    """Build ``k*N + hs`` with residues reduced mod ``k`` and deduplicated."""
    if k < 1:
        raise ValueError(f"period must be positive, got {k}")
    return PeriodicSet(k, ResidueSet(k, hs))


def density(p: PeriodicSet) -> Fraction:
    return p.density()


def member(p: PeriodicSet, x: int) -> bool:
    return p.member(x)


def rebase(p: PeriodicSet, m: int) -> PeriodicSet:
    """The same set re-expressed with modulus ``m`` (``p.modulus | m``)."""
    k = p.modulus
    if m % k != 0:
        raise ValueError(f"cannot rebase modulus {k} to non-multiple {m}")
    if m == k:
        return p
    check_budget(m)
    bits = kernels.tile_periodic(p.residues.bits(), m)
    return PeriodicSet(m, ResidueSet.from_bits(bits))


def _common_modulus(p: PeriodicSet, q: PeriodicSet) -> tuple[PeriodicSet, PeriodicSet, int]:
    m = math.lcm(p.modulus, q.modulus)
    return rebase(p, m), rebase(q, m), m


def union(p: PeriodicSet, q: PeriodicSet) -> PeriodicSet:
    a, b, m = _common_modulus(p, q)
    return PeriodicSet(m, a.residues.union_same(b.residues))


def intersect(p: PeriodicSet, q: PeriodicSet) -> PeriodicSet:
    a, b, m = _common_modulus(p, q)
    return PeriodicSet(m, a.residues.intersect_same(b.residues))


def complement(p: PeriodicSet) -> PeriodicSet:
    return PeriodicSet(p.modulus, p.residues.complement_same())


def affine(p: PeriodicSet, k: int, h: int) -> PeriodicSet:
    """Periodic normal form of ``k*P + h``.

    The result has modulus ``k * p.modulus`` and density ``density(p) / k``.
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
    idx = np.nonzero(p.residues.bits())[0].astype(np.int64) * k + (h % m)
    bits[idx % m] = 1
    return PeriodicSet(m, ResidueSet.from_bits(bits))


def sumset_mod(p: PeriodicSet, c: ResidueSet) -> PeriodicSet:
    """``{(h + r) mod k : h in p.residues, r in c}`` as a periodic set.

    When ``c`` is the residue cover of a set ``Y`` modulo ``k``, this
    realizes the sumset ``P + Y`` as a finite union of APs.
    """
    k = p.modulus
    if c.modulus != k:
        raise ValueError("sumset_mod operands must share a modulus (rebase first)")
    np_, nc = len(p.residues), len(c)
    if np_ == 0 or nc == 0:
        return PeriodicSet(k, ResidueSet(k))
    small, large = (p.residues, c) if np_ <= nc else (c, p.residues)
    if len(small) <= _SHIFT_MAX or k < _FFT_MIN_MODULUS:
        out = np.zeros(k, dtype=np.uint8)
        large_bits = large.bits()
        for s in small.residues():
            kernels.or_rotated(out, out, large_bits, s)
        return PeriodicSet(k, ResidueSet.from_bits(out))
    return PeriodicSet(k, ResidueSet.from_bits(_fft_cyclic_or(p.residues.bits(), c.bits())))


def _fft_cyclic_or(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Support of the cyclic convolution of two equal-length 0/1 arrays.

    The convolution counts are integers; the float result must lie within
    1/4 of them everywhere, otherwise the support is not trusted and
    :class:`ResourceLimitError` is raised.
    """
    k = a.shape[0]
    fa = np.fft.rfft(a.astype(np.float64))
    fb = np.fft.rfft(b.astype(np.float64))
    conv = np.fft.irfft(fa * fb, n=k)
    counts = np.rint(conv)
    conv -= counts
    err = float(np.abs(conv, out=conv).max())
    if not err < 0.25:
        raise ResourceLimitError(
            f"FFT round-off {err:.3g} at length {k} leaves the support undecided")
    return (counts > 0.5).astype(np.uint8)


def canonicalize(p: PeriodicSet) -> PeriodicSet:
    """Smallest-period representation of the same set."""
    k = p.modulus
    if len(p.residues) == 0:
        return PeriodicSet(1, ResidueSet(1))
    if k == 1:
        return p
    bits = p.residues.bits()
    for d in divisors(k):
        if d == k:
            break
        if np.array_equal(bits.reshape(k // d, d), np.broadcast_to(bits[:d], (k // d, d))):
            return PeriodicSet(d, ResidueSet.from_bits(bits[:d].copy()))
    return p


# ---------------------------------------------------------------------------
# text file format:
#   line 1: "modulus <k>"
#   line 2: "residues <comma-list>"  or  "bitmap <hex, little-endian bits>"

_RESIDUE_LIST_MAX = 1024


def dumps_periodic(p: PeriodicSet) -> str:
    lines = [f"modulus {p.modulus}"]
    if len(p.residues) <= _RESIDUE_LIST_MAX:
        lines.append("residues " + ",".join(map(str, p.residues.residues())))
    else:
        packed = np.packbits(p.residues.bits(), bitorder="little")
        lines.append("bitmap " + packed.tobytes().hex())
    return "\n".join(lines) + "\n"


def loads_periodic(text: str) -> PeriodicSet:
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
        return make_periodic(k, rs)
    if tag == "bitmap":
        packed = np.frombuffer(bytes.fromhex(payload), dtype=np.uint8)
        bits = np.unpackbits(packed, bitorder="little")[:k].astype(np.uint8)
        if bits.shape[0] < k:
            raise ValueError("bitmap shorter than modulus")
        return PeriodicSet(k, ResidueSet.from_bits(bits))
    raise ValueError(f"unknown payload tag {tag!r}")
