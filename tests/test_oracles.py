import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckdens.oracles import (
    _FACTORIAL_STEP_MAX,
    EnumeratedOracle,
    FactorialsOracle,
    FiniteOracle,
    PerfectPowersOracle,
    PrimesOracle,
    factorials_cover,
    finite_cover,
    parse_oracle,
    perfect_powers_cover,
    _crt_product,
    _kempner,
    _power_image,
    _prime_powers,
    primes_cover,
    sieve_primes,
    smallness_profile,
)
from buckdens.sets import ResourceLimitError, factorize


# moduli 64·j (j odd, or 81 at 5184) whose odd component is tiled by a
# multiple of 64, so the CRT product tiles it through whole words
WHOLE_WORD_TILED = [192, 320, 576, 960, 1344, 5184]


class TestSieve:
    def test_small(self):
        assert sieve_primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_count_to_a_million(self):
        assert sieve_primes(10**6).size == 78498

    def test_count_to_the_enumeration_budget(self):
        assert sieve_primes(10**7).size == 664579

    def test_every_small_bound(self):
        # odd and even bounds, and the edges 0-3 of the odd-only sieve
        for bound in range(301):
            expected = [n for n in range(2, bound + 1)
                        if all(n % d for d in range(2, math.isqrt(n) + 1))]
            got = sieve_primes(bound)
            assert got.dtype == np.int64 and got.tolist() == expected, bound

    def test_segment_boundaries(self):
        full = sieve_primes(10**5)
        assert full[-1] == 99991
        assert np.all(np.diff(full) > 0)


class TestPrimesCover:
    def test_mod_six(self):
        assert primes_cover(6).residues() == [1, 2, 3, 5]

    def test_mod_one(self):
        assert primes_cover(1).residues() == [0]

    def test_mod_two(self):
        assert primes_cover(2).residues() == [0, 1]

    def test_matches_enumeration(self):
        primes = sieve_primes(10**6)
        for m in (6, 12, 30, 210, 720, 9240):
            enum_res = set(np.unique(primes % m).tolist())
            cov = set(primes_cover(m).residues())
            # enumeration may not reach every coprime class but never leaves the cover
            assert enum_res <= cov
            # ... and at these sizes it does reach all of them
            assert enum_res == cov

    def test_count_mod_720(self):
        # phi(720) = 192 plus the three primes dividing 720
        assert len(primes_cover(720)) == 195

    def test_matches_gcd_definition(self):
        # the classes coprime to m, plus p mod m for each prime p | m
        primes = sieve_primes(1000)
        for m in (list(range(1, 1001)) + WHOLE_WORD_TILED
                  + [math.factorial(n) for n in range(2, 10)]):
            bits = np.gcd(np.arange(m), m) == 1
            bits[primes[m % primes == 0] % m] = True
            assert primes_cover(m).residues() == np.nonzero(bits)[0].tolist(), m


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**5), st.integers(0, 2**32 - 1))
def test_crt_product_is_the_and_of_its_components(m, seed):
    # r is in the product iff every component holds r mod q
    rng = np.random.default_rng(seed)
    moduli = [q for q, _ in _prime_powers(factorize(m))]
    indicators = [(rng.random(q) < 0.8).astype(np.uint8) for q in moduli]
    want, r = np.ones(m, dtype=bool), np.arange(m)
    for q, ind in zip(moduli, indicators):
        want &= ind[r % q].astype(bool)
    got = _crt_product(indicators)
    assert got.modulus == m and np.array_equal(got.window(m), want)


class TestFactorialsCover:
    def test_mod_six(self):
        assert set(factorials_cover(6).residues()) == {0, 1, 2}

    def test_mod_one(self):
        assert factorials_cover(1).residues() == [0]

    def test_mod_720(self):
        cov = factorials_cover(720)
        assert set(cov.residues()) == {1, 2, 6, 24, 120, 0}
        assert Fraction(len(cov), 720) == Fraction(1, 120)

    def test_matches_enumeration(self):
        oracle = FactorialsOracle()
        for m in (7, 24, 97, 5040):
            enum_res = {int(v) % m for v in oracle.enumerate(10**7)}
            assert enum_res <= set(oracle.cover(m).residues())

    def test_kempner_is_the_first_factorial_divisible_by_m(self):
        for m in range(1, 3000):
            j, f = 1, 1 % m
            while f:
                j += 1
                f = f * j % m
            assert _kempner(m) == j, m
        assert [_kempner(math.factorial(n)) for n in range(1, 12)] == list(range(1, 12))

    def test_kempner_past_the_step_budget_is_refused_before_the_loop(self):
        # 9999991 is prime, so its factorials first vanish at 9999991!
        assert _kempner(9999991) == 9999991 > _FACTORIAL_STEP_MAX
        with pytest.raises(ResourceLimitError, match="step budget"):
            factorials_cover(9999991)
        # a large smooth modulus stays in budget: 2**27 divides 32!
        m = 2**27
        assert _kempner(m) == 32
        assert factorials_cover(m).residues() == sorted(
            {math.factorial(j) % m for j in range(1, 33)})


class TestPerfectPowersCover:
    def test_mod_four(self):
        assert perfect_powers_cover(4).residues() == [0, 1, 3]

    def test_mod_one(self):
        assert perfect_powers_cover(1).residues() == [0]

    def test_mod_three(self):
        assert perfect_powers_cover(3).residues() == [0, 1, 2]

    def test_prime_power_modulus_is_powered_in_blocks(self):
        # powering all 2**22 residues at once would take 33 bytes a residue
        m = 2**22
        tracemalloc.start()
        try:
            cover = perfect_powers_cover(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m
        assert len(cover) == 2648040

    @pytest.mark.parametrize("k", [2, 5])
    def test_power_image_across_blocks(self, k):
        # 3**11 residues: two whole blocks of 2**16 and a partial one
        q = 3**11
        image = {pow(a, k, q) for a in range(q)}
        assert np.flatnonzero(_power_image(q, k)).tolist() == sorted(image)

    def test_enumeration_never_escapes_cover(self):
        oracle = PerfectPowersOracle()
        members = oracle.enumerate(10**7)
        for m in (4, 8, 9, 16, 24, 27, 36, 100, 720, 5040, 9999):
            enum_res = set(np.unique(members % m).tolist())
            cov = set(oracle.cover(m).residues())
            assert enum_res <= cov

    def test_small_moduli_cover_is_reached_by_enumeration(self):
        oracle = PerfectPowersOracle()
        members = oracle.enumerate(10**7)
        for m in (4, 8, 9, 12, 16, 25):
            assert set(np.unique(members % m).tolist()) == \
                set(oracle.cover(m).residues())

    def test_brute_force_exponent_union(self):
        # independent oracle: union over a generous exponent schedule
        for m in list(range(1, 151)) + [720] + WHOLE_WORD_TILED:
            base = np.arange(m, dtype=np.int64)
            power = base * base % m
            want = np.zeros(m, dtype=bool)
            for _ in range(2, 2 * m + 10):
                want[power] = True
                power = power * base % m
            assert perfect_powers_cover(m).residues() == np.nonzero(want)[0].tolist(), m

    def test_composite_exponents_below_v_max(self):
        # 2^10 3^4 5^2: v = 10, so the exponents 4, 6, 8 and 9 are composite
        # below v and skipped by the cover; k0 = 11 is the least k >= 10
        # coprime to lambda = lcm(256, 54, 20) = 8640
        m = 2 ** 10 * 3 ** 4 * 5 ** 2
        base = np.arange(m, dtype=np.int64)
        power = base.copy()
        want = np.zeros(m, dtype=bool)
        for k in range(2, 12):
            power = power * base % m
            want[power] = True
        assert np.array_equal(perfect_powers_cover(m).window(m), want)

    def test_nine_factorial_matches_powers_of_every_base(self):
        # 9! = 2^7 3^4 5 7: exponents 2..6, then k0 = 7, the least k >= 7
        # coprime to lambda(9!) = lcm(32, 54, 4, 6) = 864
        m = math.factorial(9)
        base = np.arange(m, dtype=np.int64)
        power = base.copy()
        want = np.zeros(m, dtype=bool)
        for k in range(2, 8):
            power = power * base % m
            want[power] = True
        assert perfect_powers_cover(m).residues() == np.nonzero(want)[0].tolist()


class TestCoverDigests:
    # sha256 of the cover(n!) bitmaps for n = 1..11, as built by the int64
    # CRT sums (powers) and strided clearing (primes) that the CRT products
    # replaced
    POWERS = [
    "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    "9dcf97a184f32623d11a73124ceb99a5709b083721e878a16d78f596718ba7b2",
    "dfea2964b5deedea7b1ef077de529c3959e6788bdbb3441e70c77a1ae875bb48",
    "22f68f5c5ab3bf9563511d59ae7a137f09297d48c3af918c7d050929a606c902",
    "0ed62d8fd0e3ba6218c6fec310a449bef5a3a26ff958ce67644c756cf71a0a6a",
    "973e4d1d25d237cbee6fd7cb288fd6b666bdf5abd8b3b5489dec499d48b72222",
    "340b7884530a246d81054115714a221339e60d7ad3a92543900412d34c2ec434",
    "37cac6d55ae4f22e89a826a5c973238faac1c1fd08541a7ff3be004e626e3fc2",
    "7ba540eaabff3adfb966b33dd7b15f4584e71207a813bfc5783c8d0d97d00644",
    "ec287ae4cc577c621283b4da957994d165e153bbe273b52ae421984bef18f36d",
    "5467ba3fd32bc876def4bc5cda19e6b9f9fd7ba2a1986571b490b45e73cbe333",
    ]
    PRIMES = [
    "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    "9dcf97a184f32623d11a73124ceb99a5709b083721e878a16d78f596718ba7b2",
    "6d1bccaa2d62ae6f83d99207620a37e3518e35594179767dc1a5e12b72e7c5a6",
    "7a1b0382061a56b8401a069f6746cba89c1c1146f881818a760941e42aee547e",
    "ea4355f72303b6d7c1aa657c1df90c923eee9702cede509ca790c913d09e8192",
    "d260fbfcea2496e1361bd8f6e59a740e70c72703e372f6a1eae79cfea8a14223",
    "dd2da3064e7cb8aa06e4b719e292e3a352f22123233d4fb452d81990227d1cc4",
    "4322187d85f01c7026af7b369da4ea6785c8cb215c0569829ed109ea8472b331",
    "82bc21ff061ce1d53602beab1076679474f195e7de81b20bdb243884b5b4de80",
    "0b5f24d10b17e7303d7b480fcc2681ba8060024ecbe2954fa67c06e86cc53672",
    "dff7e1f29267b1a1d2755155a6c4b28045859868f9a570b31e53f709cb39db92",
    ]

    @pytest.mark.parametrize("cover,digests", [(perfect_powers_cover, POWERS),
                                               (primes_cover, PRIMES)],
                             ids=["powers", "primes"])
    def test_tower_moduli(self, cover, digests):
        got = [hashlib.sha256(cover(math.factorial(n)).window(math.factorial(n)).tobytes()).hexdigest()
               for n in range(1, 12)]
        assert got == digests


class TestFiniteCover:
    def test_singleton_zero(self):
        for m in (1, 5, 24):
            assert finite_cover([0], m).residues() == [0]

    def test_collision(self):
        assert finite_cover([3, 7], 4).residues() == [3]

    def test_factorial_plus_n_covers_everything_mod_24(self):
        s = [math.factorial(n) + n for n in range(1, 31)]
        assert len(finite_cover(s, 24)) == 24

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            finite_cover([], 4)


@pytest.mark.parametrize("spec, size", [("factorials", 11), ("finite:0,24,7", 3)])
def test_a_sparse_cover_of_eleven_factorial_allocates_only_its_words(spec, size):
    # the words hold 11!/8 = 4989600 bytes; a byte per residue would be 11!
    oracle = parse_oracle(spec)
    tracemalloc.start()
    try:
        cover = oracle.cover(math.factorial(11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6
    assert len(cover) == size


@pytest.mark.parametrize("cover, size", [(primes_cover, 8294405),
                                         (perfect_powers_cover, 12140238)],
                         ids=["primes", "powers"])
def test_a_crt_cover_of_eleven_factorial_peaks_at_a_few_times_its_words(cover, size):
    # the words hold 11!/8 = 4989600 bytes; the components are intersected
    # in words, with no byte per residue of 11!
    tracemalloc.start()
    try:
        got = cover(math.factorial(11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 4989600
    assert len(got) == size


@pytest.mark.parametrize("cover", [primes_cover, factorials_cover, perfect_powers_cover,
                                   lambda m: finite_cover([0, 5], m)],
                         ids=["primes", "factorials", "powers", "finite"])
@pytest.mark.parametrize("m", [0, -1])
def test_exact_covers_refuse_a_modulus_below_one(cover, m):
    with pytest.raises(ValueError, match="modulus must be positive"):
        cover(m)


class TestEnumeratedCover:
    def test_mod_one(self):
        assert EnumeratedOracle(lambda n: n % 3 == 2, 100).cover(1).residues() == [0]

    @pytest.mark.parametrize("m", [0, -1])
    def test_modulus_below_one_is_refused_before_any_remainder(self, m):
        # a remainder by 0 would warn before the refusal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="modulus must be positive"):
                EnumeratedOracle(lambda n: n % 3 == 2, 100).cover(m)

    def test_matches_exact_primes(self):
        primes = set(sieve_primes(10**6).tolist())
        cov = EnumeratedOracle(lambda n: n in primes, 10**6).cover(6)
        assert cov.residues() == [1, 2, 3, 5]

    def test_empty_predicate_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cov = EnumeratedOracle(lambda n: False, 100).cover(5)
        assert len(cov) == 0
        assert any("non-empty" in str(w.message) for w in caught)

    def test_squares(self):
        cov = EnumeratedOracle(lambda n: math.isqrt(n) ** 2 == n, 100).cover(5)
        assert set(cov.residues()) == {0, 1, 4}

    def test_oracle_is_flagged_heuristic(self):
        oracle = EnumeratedOracle(lambda n: n % 2 == 0, 100)
        assert not oracle.exact


class TestDivisorCompatibility:
    @pytest.mark.parametrize("oracle", [PrimesOracle(), FactorialsOracle(),
                                        PerfectPowersOracle(),
                                        FiniteOracle([0, 7, 50, 1000])])
    def test_cover_projects_along_divisors(self, oracle):
        for m, d in ((720, 24), (720, 6), (5040, 720), (240, 16), (64, 8)):
            projected = {r % d for r in oracle.cover(m).residues()}
            assert projected == set(oracle.cover(d).residues())

    @pytest.mark.parametrize("spec", ["primes", "factorials", "powers", "finite:0,24,7",
                                      "enumerated"])
    def test_factorial_ladder_projects(self, spec):
        # the builder tiles level n-1's lower sumset to level n on this identity
        oracle = (EnumeratedOracle(lambda b: b % 3 == 1 or b == 5, 5000)
                  if spec == "enumerated" else parse_oracle(spec))
        for n in range(2, 9):
            fact = math.factorial(n - 1)
            projected = np.unique(np.array(oracle.cover(fact * n).residues()) % fact)
            assert projected.tolist() == oracle.cover(fact).residues()


class TestSmallnessProfile:
    def test_factorials(self):
        prof = smallness_profile(FactorialsOracle(), 6)
        assert prof.rows[-1] == (6, 6, Fraction(1, 120))
        assert prof.verdict == "consistent with small"

    def test_primes_depth_eight(self):
        prof = smallness_profile(PrimesOracle(), 8)
        n, count, eps = prof.rows[-1]
        assert (n, count) == (8, 9220)
        assert eps == Fraction(9220, math.factorial(8))
        assert abs(float(eps) - 0.2287) < 2e-4

    def test_thin_but_not_small(self):
        vals = [math.factorial(n) + n for n in range(1, 31)]
        prof = smallness_profile(FiniteOracle(vals), 4)
        assert prof.rows[-1][2] == 1
        assert prof.verdict == "not small"

    def test_epsilon_bound_for_sumsets(self):
        # |sumset(P, cover)| <= |P| * |cover|
        from buckdens.sets import ResidueSet, sumset_mod
        oracle = FactorialsOracle()
        for n in range(2, 7):
            m = math.factorial(n)
            cov = oracle.cover(m)
            p = ResidueSet(m, range(0, m, 7))
            s = sumset_mod(p, cov)
            assert len(s) <= len(p) * len(cov)


class TestParseOracle:
    def test_builtins(self):
        assert parse_oracle("primes").name == "primes"
        assert parse_oracle("factorials").name == "factorials"
        assert parse_oracle("powers").name == "powers"

    def test_finite(self):
        o = parse_oracle("finite:3,1,7")
        assert o.values == [1, 3, 7]
        assert o.exact

    def test_file(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("5\n12\n5\n")
        o = parse_oracle(f"file:{path}")
        assert o.values == [5, 12]

    def test_pred_enum(self, tmp_path):
        path = tmp_path / "pred.py"
        path.write_text("def member(n):\n    return n % 3 == 0\n")
        o = parse_oracle(f"pred-enum:{path}:50")
        assert not o.exact
        assert o.enumerate(10).tolist() == [0, 3, 6, 9]
        assert set(o.cover(3).residues()) == {0}

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_oracle("lucas-numbers")
        with pytest.raises(ValueError):
            parse_oracle("finite:1,two,3")
