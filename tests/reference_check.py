"""Independent re-check of a tower file, in the standard library only.

Shares no code with the package.  The tower text is read with ``json``, and
each level's H with ``int.from_bytes(bytes.fromhex(data), "little")``, so
residue r of H is bit r of one Python integer.  Covers come from the
definitions of B (``COVERS``), not from the package's oracles.  H' + C mod
n! is an OR of rotations of one operand, one per member of the other, taken
over the operand with fewer members.
"""

import json
import math
from fractions import Fraction


def _bits(residues) -> int:
    out = bytearray()
    for r in residues:
        if r // 8 >= len(out):
            out.extend(bytes(r // 8 + 1 - len(out)))
        out[r // 8] |= 1 << (r % 8)
    return int.from_bytes(out, "little")


def _members(x: int) -> list[int]:
    return [i for i, bit in enumerate(bin(x)[:1:-1]) if bit == "1"]


def primes_cover(m: int) -> int:
    """The classes mod m that hold a prime: every class prime to m
    (Dirichlet), and the class of each prime dividing m, found by trial
    division."""
    divisors = [p for p in range(2, m + 1)
                if m % p == 0 and all(p % d for d in range(2, math.isqrt(p) + 1))]
    return _bits([r for r in range(m) if math.gcd(r, m) == 1] + [p % m for p in divisors])


def powers_cover(m: int) -> int:
    """{a^k mod m : a >= 0, k >= 2}: each orbit a^2, a^3, ... mod m until it
    repeats."""
    found = set()
    for a in range(m):
        x = a * a % m
        orbit = set()
        while x not in orbit:
            orbit.add(x)
            x = x * a % m
        found |= orbit
    return _bits(found)


def factorials_cover(m: int) -> int:
    """{j! mod m : j >= 1}: every j! from the first one that m divides on is
    0 mod m."""
    found, f, j = {1 % m}, 1 % m, 1
    while f:
        j += 1
        f = f * j % m
        found.add(f)
    return _bits(found)


def finite_cover(values):
    return lambda m: _bits({v % m for v in values})


COVERS = {"primes": primes_cover, "powers": powers_cover, "factorials": factorials_cover}


def cover_for(spec: str):
    """The cover function of an oracle spec: a name in ``COVERS`` or
    ``finite:<comma-list>``."""
    if spec.startswith("finite:"):
        return finite_cover([int(v) for v in spec[len("finite:"):].split(",")])
    return COVERS[spec]


def _rotate(x: int, shift: int, m: int, mask: int) -> int:
    return ((x << shift) | (x >> (m - shift))) & mask


def _sumset(a: int, c: int, m: int) -> int:
    """{(x + y) mod m : x in a, y in c}, one rotation per member of the
    operand with fewer members."""
    if a.bit_count() > c.bit_count():
        a, c = c, a
    mask, out = (1 << m) - 1, 0
    for shift in _members(a):
        out |= _rotate(c, shift, m, mask)
    return out


def reference_check(text: str, cover) -> list[dict]:
    """Per level of the tower text: n, L, U, |H|, h, k and whether the next
    level nests in it (None at the top).  ``cover(m)`` is the cover of B mod
    m as an integer bitmap.  Level n + 1 nests when each of its n + 1 rows
    mod n! holds H' and lies inside H."""
    levels = json.loads(text)["levels"]
    out = []
    m = 1
    for i, lv in enumerate(levels):
        m *= lv["n"]
        h_set = int.from_bytes(bytes.fromhex(lv["H"]["data"]), "little")
        if h_set >> m:
            raise ValueError(f"level {lv['n']} sets a residue past {m}")
        h = lv["h"]
        h_prime = h_set & ~(1 << h)
        c = cover(m)
        low = _sumset(h_prime, c, m)
        high = low | _sumset(h_set & (1 << h), c, m)
        nests = None
        if i + 1 < len(levels):
            upper = int.from_bytes(bytes.fromhex(levels[i + 1]["H"]["data"]), "little")
            rows = [(upper >> (j * m)) & ((1 << m) - 1) for j in range(lv["n"] + 1)]
            nests = all(h_prime & ~row == 0 and row & ~h_set == 0 for row in rows)
        out.append({"n": lv["n"], "L": Fraction(low.bit_count(), m),
                    "U": Fraction(high.bit_count(), m), "size": h_set.bit_count(),
                    "h": h, "k": lv["k_chosen"], "nests": nests})
    return out
