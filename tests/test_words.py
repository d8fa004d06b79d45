"""The word kernels of ``sets`` against byte-per-residue references.

A residue set is little-endian 64-bit words; every whole-set operation on
them is compared here with the same operation on a 0/1 uint8 array and
``np.roll``, at moduli that are multiples of 64 and moduli that are not
(where the general bit-offset path runs).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckdens import sets
from buckdens.sets import (
    ResidueSet,
    bitmap_from_hex,
    bitmap_hex,
    divisors,
    fold,
    rebase,
    tile_words,
)

MODULI = st.one_of(st.sampled_from([1, 7, 24, 64, 96, 5040, 40320]), st.integers(1, 3000))


@st.composite
def bitmaps(draw, moduli=MODULI):
    """A 0/1 uint8 array of a drawn length and density, with the first and
    last residues set or clear as drawn."""
    k = draw(moduli)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bits = (rng.random(k) < draw(st.sampled_from([0.0, 0.01, 0.3, 0.9, 1.0]))).astype(np.uint8)
    bits[[0, k - 1]] = draw(st.sampled_from([0, 1]))
    return bits


class TestWords:
    @settings(max_examples=120)
    @given(bitmaps(), st.data())
    def test_packing_counting_listing_and_gathering(self, bits, data):
        k = bits.shape[0]
        p = ResidueSet.from_bits(bits)
        assert np.array_equal(p.words().view(np.uint8)[: -(-k // 8)],
                              np.packbits(bits, bitorder="little"))
        assert np.array_equal(p.window(k), bits)
        assert len(p) == np.count_nonzero(bits)
        assert p == ResidueSet(k, np.flatnonzero(bits))   # the scatter
        start = 64 * data.draw(st.integers(0, k // 64))
        stop = data.draw(st.integers(start, k))
        assert np.array_equal(p.members(start, stop), np.flatnonzero(bits[start:stop]) + start)
        assert p.residues() == np.flatnonzero(bits).tolist()
        probes = data.draw(st.lists(st.integers(0, k - 1), max_size=20))
        assert [r in p for r in probes] == [bool(bits[r]) for r in probes]
        assert np.array_equal(p.prefix(stop or 1).window(stop or 1), bits[:stop or 1])
        cleared = bits.copy()
        cleared[probes] = 0
        assert np.array_equal(p.discard(np.array(probes, dtype=np.int64)).window(k), cleared)

    @settings(max_examples=120)
    @given(st.data())
    def test_tile_and_window(self, data):
        # q from 64 up tiles every period, odd ones too, through whole
        # words, and a q that no block length divides ends in a head
        q = data.draw(st.one_of(st.integers(1, 12),
                                st.sampled_from([64, 65, 100, 128, 131, 192])))
        bits = data.draw(bitmaps(MODULI if q <= 12 else st.integers(1, 400)))
        k = bits.shape[0]
        p = ResidueSet.from_bits(bits)
        want = np.tile(bits, q)
        assert np.array_equal(ResidueSet.from_words(k * q, tile_words(p.words(), k, q))
                              .window(k * q), want)
        assert np.array_equal(rebase(p, k * q).window(k * q), want)
        assert np.array_equal(p.window(k * q - 1), want[:-1])

    def test_an_odd_period_is_built_as_one_word_aligned_block(self, monkeypatch):
        # 64 periods of 81 residues end on a word boundary, so tiling them
        # to 11! builds 81·64 bits as an integer and tiles the words
        k, q = 81, math.factorial(11) // 81
        built = []
        real = sets._from_int

        def recording(x, n):
            built.append(n)
            return real(x, n)

        monkeypatch.setattr(sets, "_from_int", recording)
        bits = np.zeros(k, dtype=np.uint8)
        bits[[0, 5, 80]] = 1
        out = tile_words(ResidueSet.from_bits(bits).words(), k, q)
        assert built and max(built) <= k * 64
        block = np.tile(bits, 64)
        assert np.array_equal(np.unpackbits(out[:k].view(np.uint8), bitorder="little"), block)
        assert (out.reshape(-1, k) == out[:k]).all()

    @pytest.mark.parametrize("k, q", [(3, 3 ** 9), (5, 5 ** 6), (24, 1001)])
    def test_periods_left_over_are_the_head_of_one_block(self, monkeypatch, k, q):
        # q is no multiple of the block of 64 / gcd(k, 64) periods: one
        # block is built as an integer, and the words past its whole tiles
        # are its head, not an integer of all q periods
        built = []
        real = sets._from_int

        def recording(x, n):
            built.append(n)
            return real(x, n)

        monkeypatch.setattr(sets, "_from_int", recording)
        bits = np.zeros(k, dtype=np.uint8)
        bits[[0, k - 1]] = 1
        out = tile_words(ResidueSet.from_bits(bits).words(), k, q)
        assert built and max(built) <= k * 64
        assert np.array_equal(ResidueSet.from_words(k * q, out).window(k * q), np.tile(bits, q))

    @pytest.mark.parametrize("k", [64, 81])
    def test_one_tile_is_a_fresh_copy(self, k):
        # construct ORs into a tiled result in place
        words = ResidueSet(k, [0, k - 1]).words()
        out = tile_words(words, k, 1)
        assert np.array_equal(out, words) and not np.shares_memory(out, words)

    @settings(max_examples=120)
    @given(bitmaps(), st.data())
    def test_folds(self, bits, data):
        k = bits.shape[0]
        p = ResidueSet.from_bits(bits)
        m = data.draw(st.sampled_from(divisors(k)))
        want = bits.reshape(k // m, m).max(axis=0)
        assert np.array_equal(fold(p, m).window(m), want)

    @settings(max_examples=150)
    @given(bitmaps(), st.data())
    def test_rotations_and_gains(self, bits, data):
        # both paths of Rotations on a table of words, one shift per
        # combine: the scatter and gather of its members (ratio 1) and its
        # rolled words (ratio k + 1, where 64 divides k; any other modulus
        # is always listed)
        k = bits.shape[0]
        table = ResidueSet.from_bits(bits)
        base = data.draw(bitmaps(st.just(k)))
        shifts = data.draw(st.lists(st.integers(0, k - 1), unique=True, max_size=8))
        want = base.copy()
        for s in shifts:
            want |= np.roll(bits, s)
        for ratio in (1, k + 1):
            with pytest.MonkeyPatch.context() as patched:
                patched.setattr(sets, "_SPARSE_RATIO", ratio)
                rotations = sets.Rotations(table)
            start = ResidueSet.from_bits(base).words()
            for s in shifts:
                assert rotations.gain(start, s) == np.count_nonzero(np.roll(bits, s) > base)
            got = start.copy()
            for s in shifts:
                rotations.combine(got, s)
            assert np.array_equal(ResidueSet.from_words(k, got).window(k), want)

    @settings(max_examples=80)
    @given(bitmaps())
    def test_hex_codec(self, bits):
        k = bits.shape[0]
        text = bitmap_hex(ResidueSet.from_bits(bits))
        assert text == np.packbits(bits, bitorder="little").tobytes().hex()
        assert np.array_equal(bitmap_from_hex(k, text).window(k), bits)


@pytest.mark.parametrize("k", [5, 7, 24, 101, 5040])
def test_a_set_padding_bit_is_refused(k):
    # a bit past k in the last byte of the hex, or in the last word
    packed = bytearray(np.packbits(np.ones(k, np.uint8), bitorder="little").tobytes())
    if k % 8:
        packed[-1] |= 1 << (k % 8)
        with pytest.raises(ValueError, match="padding"):
            bitmap_from_hex(k, packed.hex())
    words = ResidueSet(k, range(k)).words().copy()
    words[-1] |= np.uint64(1) << np.uint64(63)
    with pytest.raises(ValueError, match="padding"):
        ResidueSet.from_words(k, words)
