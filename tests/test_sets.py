import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckdens.cli import main
from buckdens.oracles import _carmichael
from buckdens.sets import (
    DENSE_LIMIT,
    PeriodicSet,
    ResidueSet,
    ResourceLimitError,
    affine,
    canonicalize,
    complement,
    density,
    divisors,
    dumps_periodic,
    factorize,
    _fft_cyclic_or,
    intersect,
    loads_periodic,
    make_periodic,
    member,
    naturals,
    rebase,
    sumset_mod,
    union,
)


def brute_members(p, bound):
    return {x for x in range(bound) if x % p.modulus in set(p.residues.residues())}


small_periodic = st.builds(
    make_periodic,
    st.integers(min_value=1, max_value=60),
    st.lists(st.integers(min_value=0, max_value=300), max_size=20),
)


class TestMakePeriodic:
    def test_evens(self):
        p = make_periodic(2, [0])
        assert density(p) == Fraction(1, 2)

    def test_full_line(self):
        assert make_periodic(1, [0]) == naturals()

    def test_reduction_and_dedup(self):
        p = make_periodic(4, [5, 1, 9])
        assert p.residues.residues() == [1]

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            make_periodic(0, [0])


class TestDensity:
    def test_evens(self):
        assert density(make_periodic(2, [0])) == Fraction(1, 2)

    def test_empty(self):
        assert density(make_periodic(720, [])) == 0

    def test_union_of_two_and_three(self):
        p = make_periodic(6, [0, 2, 3, 4])
        # enumeration oracle: count members in [0, 10 * 6)
        assert density(p) == Fraction(len(brute_members(p, 60)), 60) == Fraction(2, 3)


class TestBoolean:
    def test_union_two_three(self):
        u = union(make_periodic(2, [0]), make_periodic(3, [0]))
        assert u.modulus == 6
        assert u.residues.residues() == [0, 2, 3, 4]
        assert density(u) == Fraction(1, 2) + Fraction(1, 3) - Fraction(1, 6)

    def test_union_partition(self):
        assert union(make_periodic(2, [0]), make_periodic(2, [1])) == naturals()

    def test_complement_evens(self):
        c = complement(make_periodic(2, [0]))
        assert c == make_periodic(2, [1])
        assert density(c) == Fraction(1, 2)

    def test_lcm_blowup_is_a_resource_error(self):
        # both operands fit the budget, their lcm 2**15 * 3**10 does not
        p, q = make_periodic(2**15, [0]), make_periodic(3**10, [0])
        assert math.lcm(p.modulus, q.modulus) > DENSE_LIMIT
        with pytest.raises(ResourceLimitError):
            union(p, q)

    @given(small_periodic, small_periodic)
    @settings(max_examples=60, deadline=None)
    def test_boolean_ops_match_brute_force(self, p, q):
        bound = 10 * math.lcm(p.modulus, q.modulus)
        mp, mq = brute_members(p, bound), brute_members(q, bound)
        assert brute_members(union(p, q), bound) == mp | mq
        assert brute_members(intersect(p, q), bound) == mp & mq
        assert brute_members(complement(p), 10 * p.modulus) == \
            set(range(10 * p.modulus)) - brute_members(p, 10 * p.modulus)


class TestAffine:
    def test_shifted_thirds(self):
        assert affine(naturals(), 3, 1) == make_periodic(3, [1])
        assert density(affine(naturals(), 3, 1)) == Fraction(1, 3)

    def test_identity(self):
        p = make_periodic(6, [1, 5])
        assert affine(p, 1, 0) == p

    def test_double_shift(self):
        p = affine(make_periodic(2, [0]), 2, 1)
        assert p == make_periodic(4, [1])
        # enumeration of {2*(2t)+1}
        assert brute_members(p, 100) == {4 * t + 1 for t in range(25)}

    @given(small_periodic, st.integers(1, 100), st.integers(0, 100))
    @settings(max_examples=80, deadline=None)
    def test_density_scales_exactly(self, p, k, h):
        assert density(affine(p, k, h)) == density(p) / k

    @given(small_periodic, st.integers(1, 20), st.integers(0, 40))
    @settings(max_examples=50, deadline=None)
    def test_membership_matches_image_from_offset_on(self, p, k, h):
        img = affine(p, k, h)
        true_img = {k * x + h for x in brute_members(p, 30 * p.modulus)}
        bound = 10 * img.modulus
        assert {x for x in brute_members(img, bound) if x >= h} == \
            {x for x in true_img if h <= x < bound}


class TestSumsetMod:
    def test_basic(self):
        p = make_periodic(4, [0, 1])
        s = sumset_mod(p, ResidueSet(4, [0, 2]))
        assert s.residues.residues() == [0, 1, 2, 3]

    def test_identity_class(self):
        p = make_periodic(6, [1, 4])
        assert sumset_mod(p, ResidueSet(6, [0])) == p

    def test_shift_classes(self):
        s = sumset_mod(make_periodic(6, [0]), ResidueSet(6, [1, 2, 3, 5]))
        assert s.residues.residues() == [1, 2, 3, 5]
        assert density(s) == Fraction(2, 3)

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sumset_mod(make_periodic(4, [0]), ResidueSet(2, [0]))

    def test_empty_operands(self):
        assert sumset_mod(make_periodic(4, []), ResidueSet(4, [1])).is_empty()
        assert sumset_mod(make_periodic(4, [1]), ResidueSet(4, [])).is_empty()

    @given(st.integers(2, 200), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_double_loop(self, k, data):
        hs = data.draw(st.lists(st.integers(0, k - 1), max_size=15))
        cs = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=15))
        got = sumset_mod(make_periodic(k, hs), ResidueSet(k, cs))
        want = {(a + c) % k for a in hs for c in cs}
        assert set(got.residues.residues()) == want

    def test_fft_path_matches_shift_path(self):
        # modulus above the FFT threshold with both operands large
        rng = np.random.default_rng(7)
        k = 5040 * 4
        hs = rng.choice(k, size=400, replace=False)
        cs = rng.choice(k, size=300, replace=False)
        p = make_periodic(k, hs)
        c = ResidueSet(k, cs)
        fft = sumset_mod(p, c)
        out = np.zeros(k, dtype=np.uint8)
        bits = p.residues.bits()
        for s in cs:
            rolled = np.roll(bits, int(s))
            np.bitwise_or(out, rolled, out=out)
        assert np.array_equal(fft.residues.bits(), out)

    def test_fft_round_off_beyond_the_margin_is_refused(self, monkeypatch):
        rng = np.random.default_rng(8)
        k = 5040 * 4
        a = (rng.random(k) < 0.1).astype(np.uint8)
        b = (rng.random(k) < 0.1).astype(np.uint8)
        assert _fft_cyclic_or(a, b).any()
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
        with pytest.raises(ResourceLimitError, match="round-off"):
            _fft_cyclic_or(a, b)
        with pytest.raises(ResourceLimitError, match="round-off"):
            sumset_mod(PeriodicSet(k, ResidueSet.from_bits(a)), ResidueSet.from_bits(b))


class TestRebase:
    def test_expansion(self):
        assert rebase(make_periodic(2, [0]), 6).residues.residues() == [0, 2, 4]

    def test_identity(self):
        p = make_periodic(5, [2])
        assert rebase(p, 5) is p

    def test_naturals_any_modulus(self):
        assert rebase(naturals(), 2).residues.residues() == [0, 1]

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            rebase(make_periodic(4, [0]), 6)


class TestMember:
    @pytest.mark.parametrize("p,x,expected", [
        (make_periodic(2, [0]), 4, True),
        (make_periodic(2, [0]), 7, False),
        (make_periodic(6, [1, 2, 3, 5]), 25, True),
    ])
    def test_examples(self, p, x, expected):
        assert member(p, x) is expected


class TestCanonicalize:
    def test_collapses_period(self):
        assert canonicalize(make_periodic(6, [0, 2, 4])) == make_periodic(2, [0])
        assert canonicalize(make_periodic(6, [0, 2, 4])).modulus == 2

    def test_already_minimal(self):
        p = make_periodic(6, [1, 2, 3, 5])
        assert canonicalize(p).modulus == 6

    def test_empty(self):
        c = canonicalize(make_periodic(4, []))
        assert c.modulus == 1 and c.is_empty()

    @given(small_periodic)
    @settings(max_examples=80, deadline=None)
    def test_idempotent_and_member_preserving(self, p):
        c = canonicalize(p)
        assert canonicalize(c).modulus == c.modulus
        for x in range(p.modulus):
            assert member(c, x) == member(p, x)


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

    def test_carmichael_is_the_largest_unit_order(self):
        for m in range(1, 501):
            units = np.array([a for a in range(m) if math.gcd(a, m) == 1],
                             dtype=np.int64)
            order = np.zeros(units.size, dtype=np.int64)
            power = units % m
            t = 1
            while not order.all():
                order[(power == 1 % m) & (order == 0)] = t
                power = power * units % m
                t += 1
            assert _carmichael(factorize(m)) == int(order.max()), m


class TestDensityAxiomsOnPeriodicSets:
    @given(small_periodic)
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_full_line(self, p):
        assert 0 <= density(p) <= density(naturals()) == 1

    @given(small_periodic, small_periodic)
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_subadditive(self, p, q):
        u = union(p, q)
        assert density(p) <= density(u)
        assert density(u) <= density(p) + density(q)
        if intersect(p, q).is_empty():
            assert density(u) == density(p) + density(q)

    @given(small_periodic)
    @settings(max_examples=40, deadline=None)
    def test_complement_sums_to_one(self, p):
        assert density(p) + density(complement(p)) == 1

    @given(small_periodic, small_periodic)
    @settings(max_examples=40, deadline=None)
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
        assert make_periodic(10, [1, 7]) == make_periodic(10, [7, 11, 1])

    def test_mismatched_bitmap_is_a_value_error(self):
        with pytest.raises(ValueError):
            ResidueSet(5, _bits=np.zeros(4, dtype=np.uint8))


class TestFileFormat:
    def test_residue_list_round_trip(self):
        p = make_periodic(6, [0, 2, 4])
        text = dumps_periodic(p)
        assert text == "modulus 6\nresidues 0,2,4\n"
        assert loads_periodic(text) == p

    def test_bitmap_round_trip(self):
        rng = np.random.default_rng(3)
        p = make_periodic(20000, rng.choice(20000, size=5000, replace=False))
        text = dumps_periodic(p)
        assert text.splitlines()[1].startswith("bitmap ")
        assert loads_periodic(text) == p

    def test_empty_set(self):
        p = make_periodic(4, [])
        assert loads_periodic(dumps_periodic(p)) == p

    def test_bad_header(self):
        with pytest.raises(ValueError):
            loads_periodic("oops\nresidues 1\n")
