import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buckdens import sets
from buckdens.cli import main
from buckdens.sets import (
    DENSE_LIMIT,
    ResidueSet,
    ResourceLimitError,
    affine,
    bitmap_from_hex,
    bitmap_hex,
    bitmap_hex_chunks,
    canonicalize,
    divisors,
    dumps_periodic,
    factorize,
    intersect,
    min_plus_mod,
    loads_periodic,
    naturals,
    rebase,
    sumset_mod,
    union,
)


def brute_members(p, bound):
    residues = set(p.residues())
    return {x for x in range(bound) if x % p.modulus in residues}


small_periodic = st.builds(
    ResidueSet,
    st.integers(min_value=1, max_value=60),
    st.lists(st.integers(min_value=0, max_value=300), max_size=20),
)


class TestConstructor:
    def test_evens(self):
        p = ResidueSet(2, [0])
        assert p.density() == Fraction(1, 2)

    def test_full_line(self):
        assert ResidueSet(1, [0]) == naturals()

    def test_reduction_and_dedup(self):
        p = ResidueSet(4, [5, 1, 9])
        assert p.residues() == [1]

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            ResidueSet(0, [0])


class TestDensity:
    def test_evens(self):
        assert ResidueSet(2, [0]).density() == Fraction(1, 2)

    def test_empty(self):
        assert ResidueSet(720, []).density() == 0

    def test_union_of_two_and_three(self):
        p = ResidueSet(6, [0, 2, 3, 4])
        # enumeration oracle: count members in [0, 10 * 6)
        assert p.density() == Fraction(len(brute_members(p, 60)), 60) == Fraction(2, 3)


class TestBoolean:
    def test_union_two_three(self):
        u = union(ResidueSet(2, [0]), ResidueSet(3, [0]))
        assert u.modulus == 6
        assert u.residues() == [0, 2, 3, 4]
        assert u.density() == Fraction(1, 2) + Fraction(1, 3) - Fraction(1, 6)

    def test_union_partition(self):
        assert union(ResidueSet(2, [0]), ResidueSet(2, [1])) == naturals()

    def test_lcm_blowup_is_a_resource_error(self):
        # both operands fit the budget, their lcm 2**15 * 3**10 does not
        p, q = ResidueSet(2**15, [0]), ResidueSet(3**10, [0])
        assert math.lcm(p.modulus, q.modulus) > DENSE_LIMIT
        with pytest.raises(ResourceLimitError):
            union(p, q)

    @given(small_periodic, small_periodic)
    @settings(max_examples=60)
    def test_boolean_ops_match_brute_force(self, p, q):
        # the result may take a rebased operand's fresh tile, never an operand
        before = [x.words().copy() for x in (p, q)]
        u, i = union(p, q), intersect(p, q)
        assert all(np.array_equal(w, x.words()) for w, x in zip(before, (p, q)))
        bound = 10 * math.lcm(p.modulus, q.modulus)
        mp, mq = brute_members(p, bound), brute_members(q, bound)
        assert brute_members(u, bound) == mp | mq
        assert brute_members(i, bound) == mp & mq


class TestAffine:
    def test_shifted_thirds(self):
        assert affine(naturals(), 3, 1) == ResidueSet(3, [1])
        assert affine(naturals(), 3, 1).density() == Fraction(1, 3)

    def test_identity(self):
        p = ResidueSet(6, [1, 5])
        assert affine(p, 1, 0) == p

    def test_double_shift(self):
        p = affine(ResidueSet(2, [0]), 2, 1)
        assert p == ResidueSet(4, [1])
        # enumeration of {2*(2t)+1}
        assert brute_members(p, 100) == {4 * t + 1 for t in range(25)}

    @given(small_periodic, st.integers(1, 100), st.integers(0, 100))
    @settings(max_examples=80)
    def test_density_scales_exactly(self, p, k, h):
        assert affine(p, k, h).density() == p.density() / k

    @given(small_periodic, st.integers(1, 20), st.integers(0, 40))
    @settings(max_examples=50)
    def test_membership_matches_image_from_offset_on(self, p, k, h):
        img = affine(p, k, h)
        true_img = {k * x + h for x in brute_members(p, 30 * p.modulus)}
        bound = 10 * img.modulus
        assert {x for x in brute_members(img, bound) if x >= h} == \
            {x for x in true_img if h <= x < bound}


class TestSumsetMod:
    def test_basic(self):
        p = ResidueSet(4, [0, 1])
        s = sumset_mod(p, ResidueSet(4, [0, 2]))
        assert s.residues() == [0, 1, 2, 3]

    def test_identity_class(self):
        p = ResidueSet(6, [1, 4])
        assert sumset_mod(p, ResidueSet(6, [0])) == p

    def test_shift_classes(self):
        s = sumset_mod(ResidueSet(6, [0]), ResidueSet(6, [1, 2, 3, 5]))
        assert s.residues() == [1, 2, 3, 5]
        assert s.density() == Fraction(2, 3)

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sumset_mod(ResidueSet(4, [0]), ResidueSet(2, [0]))

    def test_empty_operands(self):
        assert sumset_mod(ResidueSet(4, []), ResidueSet(4, [1])).is_empty()
        assert sumset_mod(ResidueSet(4, [1]), ResidueSet(4, [])).is_empty()

    @given(st.integers(2, 200), st.data())
    @settings(max_examples=60)
    def test_matches_double_loop(self, k, data):
        hs = data.draw(st.lists(st.integers(0, k - 1), max_size=15))
        cs = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=15))
        got = sumset_mod(ResidueSet(k, hs), ResidueSet(k, cs))
        want = {(a + c) % k for a in hs for c in cs}
        assert set(got.residues()) == want


def shift_or_reference(a, b):
    out = np.zeros_like(a)
    for s in np.flatnonzero(b):
        np.bitwise_or(out, np.roll(a, int(s)), out=out)
    return out


class TestShiftKernel:
    # the shift branch of both semirings, at lengths divisible by 4,
    # = 2 (mod 4) and odd, from _PEEL_MIN_MODULUS up, with the wrap-around
    # shifts 0 and k - 1 in the small operand
    @pytest.mark.parametrize("k", [
        1 << 14, 8 * 5040, 362880,
        (1 << 14) + 2, 2 * 3 ** 9,
        (1 << 14) + 1, 3 ** 9,
    ])
    @pytest.mark.parametrize("density", [0.001, 0.05, 0.3, 1.0])
    def test_matches_shift_or(self, k, density):
        rng = np.random.default_rng(k % 1000 + int(density * 1000))
        a = (rng.random(k) < density).astype(np.uint8)
        b = np.zeros(k, dtype=np.uint8)
        b[rng.choice(k, size=40, replace=False)] = 1
        b[[0, k - 1]] = 1
        assert np.count_nonzero(b) <= sets._SHIFT_MAX
        want = shift_or_reference(a, b)
        x, y = ResidueSet.from_bits(a), ResidueSet.from_bits(b)
        assert np.array_equal(sumset_mod(x, y).window(k), want)
        assert np.array_equal(sumset_mod(y, x).window(k), want)
        assert np.array_equal(min_plus_mod(y, np.where(a, 0, 1)) == 0, want)


FACT11 = math.factorial(11)


def word_table(n, members):
    """The words of the set mod n with ``members``."""
    return ResidueSet(n, members).words()


@st.composite
def sparse_words(draw, word_counts):
    """The words of a set of a drawn number of words (its modulus up to 63
    short of filling the last) with up to 64 members, each anywhere, at
    either end, or among the first few words, so that words hold several."""
    n = max(1, 64 * draw(word_counts) - draw(st.integers(0, 63)))
    anywhere = st.one_of(st.integers(0, n - 1), st.sampled_from([0, n - 1]),
                         st.integers(0, min(n, 256) - 1))
    return word_table(n, draw(st.lists(anywhere, max_size=64)))


def assert_lists_at_its_limit(words):
    want = np.flatnonzero(np.unpackbits(words.view(np.uint8), bitorder="little"))
    got = sets._word_members(words, want.size)
    assert got.dtype == np.intp
    assert np.array_equal(got, want)
    if want.size:
        assert sets._word_members(words, want.size - 1) is None


class TestSparseMembers:
    # the one listing, _word_members, against the unpacked bits: word
    # counts below and above 2**16, and at its neighbours
    @settings(max_examples=80)
    @given(sparse_words(st.one_of(st.integers(1, 4 * 2 ** 16 + 3),
                                  st.sampled_from([2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1]))))
    @example(word_table(1, []))
    @example(word_table(64 * (2 ** 16 + 7), []))
    @example(word_table(64 * 2 ** 16 + 1, [0, 1, 63, 64, 64 * 2 ** 16]))
    @example(np.full(2 ** 16 + 1, np.uint64(2 ** 64 - 1)))
    def test_matches_flatnonzero(self, words):
        assert_lists_at_its_limit(words)

    # the words of a set mod 11!, the largest tower modulus
    @settings(max_examples=15)
    @given(sparse_words(st.just(sets.word_count(FACT11))))
    @example(word_table(FACT11, []))
    @example(word_table(FACT11, [0, 5, FACT11 - 1]))
    def test_matches_flatnonzero_at_eleven_factorial(self, words):
        assert_lists_at_its_limit(words)

    # six members in five words, two of them at the ends: every limit
    # below six is refused, and six and up list all of them
    @pytest.mark.parametrize("limit", range(8))
    def test_refuses_once_the_count_passes_the_limit(self, limit):
        k = 3 * 2 ** 16 + 5
        members = [0, 10, 2 ** 16, 2 ** 16 + 7, 3 * 2 ** 16 + 2, k - 1]
        got = sets._word_members(word_table(k, members), limit)
        if limit < len(members):
            assert got is None
        else:
            assert np.array_equal(got, members)


def periodic_operands(k, rng, density):
    """Bitmaps of length k with a periodic layer, for each prime q | k:
    tile(core) with a few members added, tile(core) with a few removed
    (each removal leaves q − 1 lifts outside the AND-fold), and tile(core)
    plus a few members where core itself is a tiled aperiodic bitmap plus
    a few members (two layers to peel)."""
    def flip(x, value, size):
        x[rng.choice(np.flatnonzero(x != value), size=size, replace=False)] = value
        return x

    for q in sets.factorize(k):
        core = (rng.random(k // q) < density).astype(np.uint8)
        yield flip(np.tile(core, q), 1, 20)
        yield flip(np.tile(core, q), 0, 3)
        r = min(sets.factorize(k // q))
        core = np.tile((rng.random(k // q // r) < density).astype(np.uint8), r)
        yield flip(np.tile(flip(core, 1, 10), q), 1, 10)


class TestPeriodicPeel:
    # the peel runs at every modulus: 5040 and 9240 lie below
    # _PEEL_MIN_MODULUS, which only decides what an operand with no layer
    # takes; periodic_operands leaves an aperiodic core at k/q, refused from
    # _PEEL_MIN_MODULUS up, so 8! and 2^16 take nested_operand instead
    @pytest.mark.parametrize("k", [math.factorial(8), 1 << 16, 3 ** 9, 4 * 5040,
                                   5040, 9240])
    def test_matches_shift_or(self, k):
        # a dense layered operand with a sparse partner, and a sparse one
        # (still beyond the shift-OR size) with a dense partner; each sum
        # is taken in both orders
        rng = np.random.default_rng(k)
        sparse = np.zeros(k, dtype=np.uint8)
        sparse[rng.choice(k, size=150, replace=False)] = 1
        dense = (rng.random(k) < 0.3).astype(np.uint8)
        for partner, density in ((sparse, 0.3), (dense, 0.02)):
            if k // min(sets.factorize(k)) < sets._PEEL_MIN_MODULUS:
                operands = periodic_operands(k, rng, density)
            else:
                operands = [nested_operand(k, rng, density)]
            for x in operands:
                assert np.count_nonzero(x) > sets._SHIFT_MAX
                fewer, more = sorted((x, partner), key=np.count_nonzero)
                want = shift_or_reference(more, fewer)
                for a, b in ((x, partner), (partner, x)):
                    got = sumset_mod(ResidueSet.from_bits(a), ResidueSet.from_bits(b))
                    assert np.array_equal(got.window(k), want)

    def test_peelable_operands_take_no_transform(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a peelable operand reached a transform")

        monkeypatch.setattr(np.fft, "rfft", refuse)
        k = 4 * 5040
        rng = np.random.default_rng(1)
        partner = (rng.random(k) < 0.1).astype(np.uint8)
        for x in periodic_operands(k, rng, 0.3):
            sumset_mod(ResidueSet.from_bits(x), ResidueSet.from_bits(partner))

    def test_aperiodic_operands_are_refused(self):
        # neither operand has a layer, at a modulus from _PEEL_MIN_MODULUS up
        k = math.factorial(8)
        rng = np.random.default_rng(2)
        x, y = (ResidueSet.from_bits((rng.random(k) < 0.1).astype(np.uint8))
                for _ in range(2))
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ResourceLimitError, match="has a periodic layer"):
                sumset_mod(a, b)

    @pytest.mark.parametrize("k", [5040, math.factorial(8)])
    def test_or_and_min_semirings_agree(self, k):
        # P + C is where the min-plus sum of P with the 0/1 table that is 0
        # on C reaches 0.  P is layered and C is not: min_plus_mod peels P,
        # and so does sumset_mod, handed P first; both operands are sparse
        # enough that P + C misses residues
        rng = np.random.default_rng(k + 5)
        if k < sets._PEEL_MIN_MODULUS:
            x = np.tile(nested_operand(k // 7, rng, 0.015), 7)
            x[rng.choice(k, size=10, replace=False)] ^= 1
        else:
            x = nested_operand(k, rng, 0.005)
        size = np.count_nonzero(x)
        p = ResidueSet.from_bits(x)
        assert size > sets._SHIFT_MAX and sets._periodic_layer(p, size) is not None
        c = ResidueSet(k, rng.choice(k, size=size + 10, replace=False))
        want = sumset_mod(p, c).window(k)
        assert 0 < np.count_nonzero(want) < k
        assert np.array_equal(want, min_plus_mod(p, np.where(c.window(k), 0, 1)) == 0)


def nested_operand(k, rng, density):
    """A bitmap of length k that peels layer by layer, by the smallest prime
    each time, down to an aperiodic core below ``_PEEL_MIN_MODULUS``, where
    an operand with no layer is shifted."""
    if k < sets._PEEL_MIN_MODULUS:
        return (rng.random(k) < density).astype(np.uint8)
    q = min(sets.factorize(k))
    x = np.tile(nested_operand(k // q, rng, density), q)
    x[rng.choice(k, size=10, replace=False)] ^= 1
    return x


def periodic_layer_reference(x):
    """``(q, f, E)`` of ``sets._periodic_layer`` from the definition: for
    each prime q | k, the AND-fold f mod k/q and the members E of x off its
    tiling, listed directly; of these, the one with the fewest E, the
    largest q on a tie, when that E holds at most ``_SHIFT_MAX`` residues,
    and None otherwise."""
    k = x.shape[0]
    layers = []
    for q in sets.factorize(k):
        core = x.reshape(q, k // q).min(axis=0)
        layers.append((q, core, np.flatnonzero(x > np.tile(core, q))))
    if not layers:
        return None
    best = min(layers, key=lambda layer: (layer[2].size, -layer[0]))
    return best if best[2].size <= sets._SHIFT_MAX else None


def largest_prime_leaves_an_excess():
    """A bitmap of length 210, periodic mod 105 (q = 2 leaves no excess),
    whose fold by the largest prime, 7, leaves an excess of 2: the tiling
    of a period-15 core plus one residue and its lift by 105."""
    core = np.array([1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0], dtype=np.uint8)
    y = np.tile(core, 7)
    y[1] = 1
    return np.tile(y, 2)


def smooth_moduli(two, three, five):
    """k = 2^a 3^b 5^c 7^d with a <= two, b <= three, c <= five, d <= 1."""
    return st.builds(lambda a, b, c, d: 2 ** a * 3 ** b * 5 ** c * 7 ** d,
                     st.integers(0, two), st.integers(0, three), st.integers(0, five),
                     st.integers(0, 1))


@st.composite
def layered_bitmaps(draw, moduli):
    """A bitmap of a length k drawn from ``moduli``: a random core mod k/d
    for a drawn divisor d, tiled, with up to 80 members flipped, so that
    several primes may fold it, with excesses on both sides of
    ``_SHIFT_MAX``."""
    k = draw(moduli)
    d = draw(st.sampled_from(divisors(k)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from([0.02, 0.3, 0.9, 1.0]))
    x = np.tile((rng.random(k // d) < density).astype(np.uint8), d)
    flips = draw(st.integers(0, min(k, 80)))
    x[rng.choice(k, size=flips, replace=False)] ^= 1
    return x


class TestPeriodicLayer:
    @settings(max_examples=300)
    @given(layered_bitmaps(smooth_moduli(6, 3, 2)))
    @example(np.ones(2 * 3 * 5 * 7, dtype=np.uint8))
    @example(np.zeros(2 * 3 * 5 * 7, dtype=np.uint8))
    @example(np.ones(1, dtype=np.uint8))
    @example(largest_prime_leaves_an_excess())
    def test_matches_least_excess_reference(self, x):
        got = sets._periodic_layer(ResidueSet.from_bits(x), int(np.count_nonzero(x)))
        want = periodic_layer_reference(x)
        assert (got is None) == (want is None)
        if want is not None:
            assert got[0] == want[0]
            assert np.array_equal(got[1].window(x.shape[0] // got[0]), want[1])
            assert np.array_equal(got[2], want[2])


def min_plus_reference(p, values, none):
    """min{values[c] : p[r - c]} per residue r, class by class over the
    classes whose value is not ``none``: with all of ``values`` at least
    ``none``, every r is ``none`` once p has a member."""
    fill = none if p.any() else np.iinfo(values.dtype).max
    out = np.full(p.shape[0], fill, dtype=values.dtype)
    for c in np.flatnonzero(values != none):
        np.minimum(out, np.where(np.roll(p, int(c)), values[c], out), out=out)
    return out


class TestMinPlusMod:
    @given(st.integers(1, 120), st.data())
    @settings(max_examples=60)
    def test_matches_double_loop(self, k, data):
        p = np.array(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)),
                     dtype=np.uint8)
        values = np.array(data.draw(st.lists(st.integers(0, 500), min_size=k,
                                             max_size=k)), dtype=np.int32)
        got = min_plus_mod(ResidueSet.from_bits(p), values)
        for r in range(k):
            sums = [int(values[c]) for c in range(k) if p[(r - c) % k]]
            assert got[r] == min(sums, default=np.iinfo(np.int32).max)

    # periodic_operands leaves an aperiodic core at k/q, which min_plus_mod
    # shifts below _PEEL_MIN_MODULUS and refuses from there on, so those are
    # taken only where every k/q lies below it; nested_operand peels up to
    # four layers deep; 5040 peels below _PEEL_MIN_MODULUS
    @pytest.mark.parametrize("k", [4 * 5040, 3 ** 9, 30030, math.factorial(8), 1 << 17,
                                   5040])
    def test_peel_matches_brute_force(self, k):
        # first-member tables over a few hundred classes, the rest "none"
        # (horizon + 1), against dense and sparse layered periods
        rng = np.random.default_rng(k)
        none = 10 ** 6
        for density in (0.3, 0.02):
            operands = [nested_operand(k, rng, density)]
            if k // min(sets.factorize(k)) < sets._PEEL_MIN_MODULUS:
                operands += periodic_operands(k, rng, density)
            for p in operands:
                assert np.count_nonzero(p) > sets._SHIFT_MAX
                values = np.full(k, none, dtype=np.int32)
                classes = rng.choice(k, size=300, replace=False)
                values[classes] = rng.integers(0, none, size=300)
                assert np.array_equal(min_plus_mod(ResidueSet.from_bits(p), values),
                                      min_plus_reference(p, values, none))

    def test_a_large_period_without_a_layer_is_refused(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an unpeelable period reached the shift loop")

        monkeypatch.setattr(sets, "combine_rotated", refuse)
        rng = np.random.default_rng(3)
        p = (rng.random(1 << 16) < 0.3).astype(np.uint8)
        with pytest.raises(ResourceLimitError, match="no periodic layer"):
            min_plus_mod(ResidueSet.from_bits(p), np.zeros(1 << 16, dtype=np.int32))


SPARSE_RATIO = sets._SPARSE_RATIO


@st.composite
def rule_bitmaps(draw, k, sparse):
    """A bitmap of length k whose members lie on the drawn side of the
    sparse/dense rule, 0 and k − 1 taken first when drawn so."""
    bound = k // SPARSE_RATIO
    count = draw(st.integers(0, bound) if sparse else
                 st.integers(bound + 1, min(k, bound + 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = rng.permutation(k)
    if draw(st.booleans()):
        edges = np.unique([0, k - 1])
        order = np.concatenate([edges, order[~np.isin(order, edges)]])
    table = np.zeros(k, dtype=np.uint8)
    table[order[:count]] = 1
    return table


@st.composite
def min_tables(draw, k):
    """(table, fill) of length k: an int32 or int64 table whose entries
    are its dtype's maximum (``fill``) but for a drawn number, anywhere
    from none to all of them, with values from a small range, so that they
    repeat."""
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    fill = np.iinfo(dtype).max
    count = draw(st.one_of(st.integers(0, min(k, 200)), st.just(k)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    table = np.full(k, fill, dtype=dtype)
    table[rng.permutation(k)[:count]] = rng.integers(0, draw(st.sampled_from([3, 1000])),
                                                    size=count)
    return table, fill


def semiring_moduli(two):
    """Moduli with several prime factors, at least 2 * SPARSE_RATIO so that
    the sparse side holds members."""
    return smooth_moduli(two, 2, 1).filter(lambda k: k >= 2 * SPARSE_RATIO)


class TestScatterRotation:
    # Rotations' two paths, the scatter (or gather) of a listed set and one
    # rotation (or count) per shift, on either side of the sparse/dense
    # rule, at moduli that are multiples of 64 and moduli that are not; the
    # ratio only picks the path, so 1 forces the listing and k + 1 the
    # whole passes of any set with a member
    @settings(max_examples=150)
    @given(st.data())
    def test_paths_agree_with_rolls(self, data):
        k = data.draw(st.one_of(semiring_moduli(6), st.sampled_from([2 ** 17, 100800])))
        sparse = data.draw(st.booleans())
        table = data.draw(rule_bitmaps(k, sparse))
        shifts = np.array(data.draw(st.lists(st.one_of(st.integers(0, k - 1), st.just(k - 1)),
                                             unique=True, max_size=64)), dtype=np.intp)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        start = np.where(rng.random(k) < 0.5, table[rng.permutation(k)], 0).astype(np.uint8)
        want = start.copy()
        for s in shifts.tolist():
            want |= np.roll(table, s)
        handed = ResidueSet.from_bits(table)
        begin = ResidueSet.from_bits(start).words()
        assert (sets.Rotations(handed).entries is not None) == sparse
        for ratio in (SPARSE_RATIO, 1, k + 1):
            with pytest.MonkeyPatch.context() as patched:
                patched.setattr(sets, "_SPARSE_RATIO", ratio)
                rotations = sets.Rotations(handed)
            got = rotations.combine(begin.copy(), shifts)
            assert np.array_equal(ResidueSet.from_words(k, got).window(k), want)
            for s in shifts.tolist():
                assert rotations.gain(begin, s) == np.count_nonzero(np.roll(table, s) > start)

    @settings(max_examples=60)
    @given(st.data())
    def test_sums_match_references(self, data):
        if data.draw(st.booleans()):
            # from _PEEL_MIN_MODULUS up, a first operand of more than
            # _SHIFT_MAX members with no layer falls back to a second that
            # peels; random members pair up across a fold too rarely for
            # 150 of them to leave at most _SHIFT_MAX
            k = data.draw(st.sampled_from([1 << 15, 2 * 3 ** 9, math.factorial(8)]))
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
            p = np.zeros(k, dtype=np.uint8)
            size = data.draw(st.integers(150, 300))
            p[rng.choice(k, size=size, replace=False)] = 1
            assert sets._periodic_layer(ResidueSet.from_bits(p), size) is None
            c = nested_operand(k, rng, data.draw(st.sampled_from([0.02, 0.3])))
            want = shift_or_reference(c, p)
            for a, b in ((p, c), (c, p)):
                got = sumset_mod(ResidueSet.from_bits(a), ResidueSet.from_bits(b))
                assert np.array_equal(got.window(k), want)
            return
        # below _PEEL_MIN_MODULUS, so that every operand peels or shifts
        k = data.draw(semiring_moduli(5))
        assert k < sets._PEEL_MIN_MODULUS
        p = data.draw(layered_bitmaps(st.just(k)))
        if data.draw(st.booleans()):
            table, fill = data.draw(min_tables(k))
            assert np.array_equal(min_plus_mod(ResidueSet.from_bits(p), table),
                                  min_plus_reference(p, table, fill))
            return
        table = data.draw(rule_bitmaps(k, data.draw(st.booleans())))
        fewer, more = sorted((p, table), key=np.count_nonzero)
        want = shift_or_reference(more, fewer)
        for a, b in ((p, table), (table, p)):
            got = sumset_mod(ResidueSet.from_bits(a), ResidueSet.from_bits(b))
            assert np.array_equal(got.window(k), want)


class TestRebase:
    def test_expansion(self):
        assert rebase(ResidueSet(2, [0]), 6).residues() == [0, 2, 4]

    def test_identity(self):
        p = ResidueSet(5, [2])
        assert rebase(p, 5) is p

    def test_naturals_any_modulus(self):
        assert rebase(naturals(), 2).residues() == [0, 1]

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            rebase(ResidueSet(4, [0]), 6)


class TestMember:
    # x in p for any x >= 0, the modulus's multiples included
    @pytest.mark.parametrize("p,x,expected", [
        (ResidueSet(2, [0]), 4, True),
        (ResidueSet(2, [0]), 7, False),
        (ResidueSet(6, [1, 2, 3, 5]), 25, True),
    ])
    def test_examples(self, p, x, expected):
        assert (x in p) is expected


class TestCanonicalize:
    def test_collapses_period(self):
        assert canonicalize(ResidueSet(6, [0, 2, 4])) == ResidueSet(2, [0])
        assert canonicalize(ResidueSet(6, [0, 2, 4])).modulus == 2

    def test_already_minimal(self):
        p = ResidueSet(6, [1, 2, 3, 5])
        assert canonicalize(p).modulus == 6

    def test_empty(self):
        c = canonicalize(ResidueSet(4, []))
        assert c.modulus == 1 and c.is_empty()

    @given(small_periodic)
    @settings(max_examples=80)
    def test_idempotent_and_member_preserving(self, p):
        c = canonicalize(p)
        assert canonicalize(c).modulus == c.modulus
        for x in range(p.modulus):
            assert (x in c) == (x in p)


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestNumberTheory:
    def test_rejects_non_positive(self):
        for n in (0, -6):
            with pytest.raises(ValueError):
                factorize(n)

    def test_factorize(self):
        cases = (list(range(1, 3001)) + [math.factorial(n) for n in range(1, 12)]
                 + [2**28 - 57])
        for n in cases:
            factors = factorize(n)
            assert all(is_prime(p) and e >= 1 for p, e in factors.items()), n
            assert math.prod(p ** e for p, e in factors.items()) == n

    def test_divisors_ascending(self):
        for n in list(range(1, 3001)) + [math.factorial(10)]:
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


class TestDensityAxiomsOnPeriodicSets:
    @given(small_periodic)
    @settings(max_examples=60)
    def test_bounded_by_full_line(self, p):
        assert 0 <= p.density() <= naturals().density() == 1

    @given(small_periodic, small_periodic)
    @settings(max_examples=60)
    def test_monotone_and_subadditive(self, p, q):
        u = union(p, q)
        assert p.density() <= u.density()
        assert u.density() <= p.density() + q.density()
        if intersect(p, q).is_empty():
            assert u.density() == p.density() + q.density()

    @given(small_periodic, small_periodic)
    @settings(max_examples=40)
    def test_inclusion(self, p, q):
        u = union(p, q)
        # X ⊆ Y exactly when X ∪ Y = Y
        assert union(u, p) == u and union(u, q) == u
        assert union(p, intersect(p, q)) == p


class TestBitmapRepresentation:
    def test_modulus_beyond_dense_budget_is_a_resource_error(self, capsys):
        with pytest.raises(ResourceLimitError):
            ResidueSet(DENSE_LIMIT + 1, [3])
        code = main(["cover", "--b", "finite:0,24,7", "--mod", str(10**12)])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("resource error:")

    def test_equality_ignores_order_and_duplicates(self):
        assert ResidueSet(10, [1, 7]) == ResidueSet(10, [7, 11, 1])

    def test_mismatched_bitmap_is_a_value_error(self):
        with pytest.raises(ValueError):
            ResidueSet.from_words(5, np.zeros(4, dtype=np.uint8))


class TestEquality:
    def test_sets_denoting_the_same_integers_are_equal(self):
        evens, evens_mod_4 = ResidueSet(2, [0]), ResidueSet(4, [0, 2])
        assert evens == evens_mod_4 and hash(evens) == hash(evens_mod_4)
        assert ResidueSet(2, [0]) != ResidueSet(4, [0])
        assert ResidueSet(6, []) == ResidueSet(5, []) == canonicalize(ResidueSet(7, []))

    def test_same_modulus_compares_bitmaps(self, monkeypatch):
        def refuse(p):
            raise AssertionError("equal moduli need no canonical form")

        monkeypatch.setattr(sets, "canonicalize", refuse)
        assert ResidueSet(6, [1, 5]) == ResidueSet(6, [5, 1, 7])
        assert ResidueSet(6, [1, 5]) != ResidueSet(6, [1])
        assert ResidueSet(6, [0, 2, 4]) != ResidueSet(6, [0, 3])

    @given(small_periodic, small_periodic)
    @settings(max_examples=80)
    def test_equality_is_equality_of_members(self, p, q):
        bound = math.lcm(p.modulus, q.modulus)
        same = brute_members(p, bound) == brute_members(q, bound)
        assert (p == q) is same
        if same:
            assert hash(p) == hash(q)
        tiled = rebase(p, 3 * p.modulus)
        assert tiled == p and hash(tiled) == hash(p)


class TestFileFormat:
    def test_residue_list_round_trip(self):
        p = ResidueSet(6, [0, 2, 4])
        text = dumps_periodic(p)
        assert text == "modulus 6\nresidues 0,2,4\n"
        assert loads_periodic(text) == p

    def test_bitmap_round_trip(self):
        rng = np.random.default_rng(3)
        p = ResidueSet(20000, rng.choice(20000, size=5000, replace=False))
        text = dumps_periodic(p)
        assert text.splitlines()[1].startswith("bitmap ")
        assert loads_periodic(text) == p

    def test_bitmap_round_trip_with_padding(self):
        # k = 20005 leaves three padding bits in the last byte
        rng = np.random.default_rng(4)
        p = ResidueSet(20005, np.append(rng.choice(20005, size=5000), 20004))
        text = dumps_periodic(p)
        assert len(text.splitlines()[1]) == len("bitmap ") + 2 * 2501
        assert loads_periodic(text) == p

    def test_empty_set(self):
        p = ResidueSet(4, [])
        assert loads_periodic(dumps_periodic(p)) == p

    def test_bad_header(self):
        with pytest.raises(ValueError):
            loads_periodic("oops\nresidues 1\n")

    @pytest.mark.parametrize("k", [1, 7, 8, 9, 20005])
    def test_bitmap_hex_round_trip(self, k):
        bits = (np.random.default_rng(k).random(k) < 0.5).astype(np.uint8)
        text = bitmap_hex(ResidueSet.from_bits(bits))
        assert len(text) == 2 * -(-k // 8) and text == text.lower()
        assert text == np.packbits(bits, bitorder="little").tobytes().hex()
        assert np.array_equal(bitmap_from_hex(k, text).window(k), bits)

    @pytest.mark.parametrize("k, text", [
        (12, "FF0F"), (12, "ff 0f"), (12, "ff0"), (12, "ff0f00"), (5, "e4"),
        (0, ""), (-8, "00"),
    ], ids=["upper-case", "space", "odd-digit", "spare-byte", "padding",
            "zero-modulus", "negative-modulus"])
    def test_bitmap_from_hex_takes_only_what_bitmap_hex_writes(self, k, text):
        with pytest.raises(ValueError):
            bitmap_from_hex(k, text)


# ---------------------------------------------------------------------------
# the hex codec across its chunk boundaries

CHUNK = sets._HEX_CHUNK
BAD_TEXT_DIGITS = 2 * CHUNK + 2


def random_set(k):
    words = np.random.default_rng(k).integers(0, 1 << 64, size=-(-k // 64),
                                              dtype=np.uint64)
    if k % 64:
        words[-1] &= np.uint64((1 << (k % 64)) - 1)
    return ResidueSet.from_words(k, words)


@pytest.fixture(scope="module")
def three_chunk_text():
    # its last digit lies in a third chunk; k leaves 5 padding bits
    k = 4 * BAD_TEXT_DIGITS - 5
    return k, bitmap_hex(random_set(k))


class TestHexChunks:
    @pytest.mark.parametrize("digits", [CHUNK - 2, CHUNK, CHUNK + 2, 2 * CHUNK])
    @pytest.mark.parametrize("spare", [0, 5])
    def test_round_trip_at_a_boundary(self, digits, spare):
        k = 4 * digits - spare
        p = random_set(k)
        chunks = list(bitmap_hex_chunks(p))
        assert [len(c) for c in chunks[:-1]] == [CHUNK] * (len(chunks) - 1)
        assert 0 < len(chunks[-1]) <= CHUNK
        text = bitmap_hex(p)
        assert text == "".join(chunks)
        assert text == p.words().view(np.uint8)[:-(-k // 8)].tobytes().hex()
        assert len(text) == digits
        assert bitmap_from_hex(k, text) == p

    @pytest.mark.parametrize("offset", [0, CHUNK - 1, CHUNK, CHUNK + 1,
                                        BAD_TEXT_DIGITS - 1])
    @pytest.mark.parametrize("bad", ["A", " ", "g", "\u00e9"],
                             ids=["upper-case", "space", "g", "non-ascii"])
    def test_a_bad_digit_is_refused_in_any_chunk(self, three_chunk_text, offset, bad):
        k, text = three_chunk_text
        text = text[:offset] + bad + text[offset + 1:]
        message = f"bitmap for modulus {k} must be {BAD_TEXT_DIGITS} lower-case hex digits"
        with pytest.raises(ValueError) as info:
            bitmap_from_hex(k, text)
        assert str(info.value) == message

    def test_a_padding_bit_is_refused_past_the_first_chunk(self, three_chunk_text):
        k, text = three_chunk_text
        last = int(text[-2:], 16) | 1 << (k % 8)
        with pytest.raises(ValueError, match="padding bits past modulus"):
            bitmap_from_hex(k, text[:-2] + f"{last:02x}")

    def test_decoding_holds_the_words_and_at_most_two_chunks(self):
        # the text spans many chunks; a full-size bytes copy of it would
        # cost as much again as the words
        k = 1 << 25
        text = bitmap_hex(random_set(k))
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            p = bitmap_from_hex(k, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - live <= p.words().nbytes + 2 * CHUNK
