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

    def test_a_dense_first_operand_is_rotated_not_listed(self):
        # the operand with more members is rotated by each member of the
        # other, whichever is handed first: the 20160 evens mod 8! are not
        # 20160 shifts of the 70 odd residues below 140
        k = math.factorial(8)
        evens, odds = ResidueSet(k, range(0, k, 2)), ResidueSet(k, range(1, 140, 2))
        tracemalloc.start()
        try:
            got = sumset_mod(evens, odds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.residues() == list(range(1, k, 2))
        assert peak < 1 << 20


def shift_or_reference(a, b):
    out = np.zeros_like(a)
    for s in np.flatnonzero(b):
        np.bitwise_or(out, np.roll(a, int(s)), out=out)
    return out


class TestShiftKernel:
    # one rotation of the operand with more members per member of the
    # other, at lengths divisible by 4, = 2 (mod 4) and odd, with the
    # wrap-around shifts 0 and k - 1 in the small operand, handed first
    # and second
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
        want = shift_or_reference(a, b)
        x, y = ResidueSet.from_bits(a), ResidueSet.from_bits(b)
        assert np.array_equal(sumset_mod(y, x).window(k), want)
        assert np.array_equal(sumset_mod(x, y).window(k), want)


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


def smooth_moduli(two, three, five):
    """k = 2^a 3^b 5^c 7^d with a <= two, b <= three, c <= five, d <= 1."""
    return st.builds(lambda a, b, c, d: 2 ** a * 3 ** b * 5 ** c * 7 ** d,
                     st.integers(0, two), st.integers(0, three), st.integers(0, five),
                     st.integers(0, 1))


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


def rotation_moduli(two):
    """Moduli with several prime factors, at least 2 * SPARSE_RATIO so that
    the sparse side holds members."""
    return smooth_moduli(two, 2, 1).filter(lambda k: k >= 2 * SPARSE_RATIO)


class TestScatterRotation:
    # Rotations' two paths, the scatter (or gather) of a listed set and its
    # rolled words, on either side of the sparse/dense rule, at moduli that
    # are multiples of 64 and moduli that are not, one shift per combine;
    # the ratio only picks the path, so 1 forces the listing and k + 1 the
    # rolled words of any set with a member, where 64 divides k (any other
    # modulus is always listed)
    @settings(max_examples=150)
    @given(st.data())
    def test_paths_agree_with_rolls(self, data):
        k = data.draw(st.one_of(rotation_moduli(6), st.sampled_from([2 ** 17, 100800])))
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
        assert (sets.Rotations(handed).entries is not None) == (sparse or k % 64 != 0)
        for ratio in (SPARSE_RATIO, 1, k + 1):
            with pytest.MonkeyPatch.context() as patched:
                patched.setattr(sets, "_SPARSE_RATIO", ratio)
                rotations = sets.Rotations(handed)
            got = begin.copy()
            for s in shifts.tolist():
                rotations.combine(got, s)
            assert np.array_equal(ResidueSet.from_words(k, got).window(k), want)
            for s in shifts.tolist():
                assert rotations.gain(begin, s) == np.count_nonzero(np.roll(table, s) > start)

    @settings(max_examples=60)
    @given(st.data())
    def test_sums_match_references(self, data):
        # a first operand of up to 300 members, scattered anywhere, at
        # moduli that are multiples of 64 and moduli that are not, against
        # a second operand on either side of the sparse/dense rule
        k = data.draw(st.one_of(rotation_moduli(6),
                                st.sampled_from([1 << 15, 2 * 3 ** 9, math.factorial(8)])))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        p = np.zeros(k, dtype=np.uint8)
        p[rng.choice(k, size=data.draw(st.integers(0, 300)), replace=False)] = 1
        table = data.draw(rule_bitmaps(k, data.draw(st.booleans())))
        fewer, more = sorted((p, table), key=np.count_nonzero)
        want = shift_or_reference(more, fewer)
        got = sumset_mod(ResidueSet.from_bits(p), ResidueSet.from_bits(table))
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
