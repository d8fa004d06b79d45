import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

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
    _kempner,
    primes_cover,
    sieve_primes,
    smallness_profile,
)
from buckdens.sets import ResourceLimitError


class TestSieve:
    def test_small(self):
        assert sieve_primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_count_to_a_million(self):
        assert sieve_primes(10**6).size == 78498

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
        for m in list(range(1, 1001)) + [math.factorial(n) for n in range(2, 10)]:
            bits = np.gcd(np.arange(m), m) == 1
            bits[primes[m % primes == 0] % m] = True
            assert primes_cover(m).residues() == np.nonzero(bits)[0].tolist(), m


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
        for m in list(range(1, 151)) + [720]:
            base = np.arange(m, dtype=np.int64)
            power = base * base % m
            want = np.zeros(m, dtype=bool)
            for _ in range(2, 2 * m + 10):
                want[power] = True
                power = power * base % m
            assert perfect_powers_cover(m).residues() == np.nonzero(want)[0].tolist(), m

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


class TestEnumeratedCover:
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
        from buckdens.sets import ResidueSet, make_periodic, sumset_mod
        oracle = FactorialsOracle()
        for n in range(2, 7):
            m = math.factorial(n)
            cov = oracle.cover(m)
            p = make_periodic(m, range(0, m, 7))
            s = sumset_mod(p, cov)
            assert len(s.residues) <= len(p.residues) * len(cov)


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
