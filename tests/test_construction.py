import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from buckdens import construction, sets
from buckdens.construction import (
    CertificateError,
    Tower,
    a_bounds,
    check_claimA,
    construct,
    count_A,
    membership,
    step,
    sum_bounds,
    tower_from_json,
    tower_to_json,
)
from buckdens.oracles import (
    FactorialsOracle,
    FiniteOracle,
    PerfectPowersOracle,
    PrimesOracle,
    parse_oracle,
)
from buckdens.sets import PeriodicSet, ResidueSet, ResourceLimitError, rebase, sumset_mod

from naive_replay import materialize, naive_replay

HALF = Fraction(1, 2)


class TestKnownTrace:
    def test_b_zero_alpha_half(self):
        oracle = FiniteOracle([0])
        t = construct(oracle, HALF, 8)
        assert [lv.k_chosen for lv in t.levels] == [None, 1, 0, 0, 0, 0, 0, 0]
        assert t.levels[1].H.residues() == [0, 1]
        assert t.levels[2].H.residues() == [0, 1, 2, 4]
        for lv in t.levels[1:]:
            assert lv.density_a == HALF + Fraction(1, lv.modulus)
            assert lv.sum_lower == HALF
            assert lv.sum_upper == HALF + Fraction(1, lv.modulus)

    def test_matches_naive_replay_depth_eight(self):
        oracle = FiniteOracle([0])
        t = construct(oracle, HALF, 8)
        replay = naive_replay([0], HALF, 8)
        for lv, ref in zip(t.levels, replay):
            assert set(lv.H.residues()) == ref["H"]
            assert lv.h == ref["h"]
            assert lv.k_chosen == ref["k"]
            assert (lv.density_a, lv.sum_lower, lv.sum_upper) == \
                (ref["densityA"], ref["L"], ref["U"])

    def test_alpha_zero(self):
        t = construct(FiniteOracle([0]), Fraction(0), 6)
        for lv in t.levels[1:]:
            assert lv.k_chosen == 0
            assert lv.H.residues() == [0]
            assert lv.h == 0

    def test_alpha_one_trivial(self):
        t = construct(PrimesOracle(), Fraction(1), 3)
        assert t.trivial
        assert membership(t, 123456) == "in_at_depth"
        assert a_bounds(t).lower == a_bounds(t).upper == 1

    def test_unreduced_alpha_one_routes_to_shortcut(self):
        assert construct(FiniteOracle([0]), Fraction(7, 7), 3).trivial


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("b_values", [[0], [1, 3], [0, 2, 5]])
    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 3),
                                       Fraction(1, 2), Fraction(9, 10)])
    def test_depth_four_towers_match_explicit_lists(self, b_values, alpha):
        t = construct(FiniteOracle(b_values), alpha, 4)
        replay = naive_replay(b_values, alpha, 4)
        bound = 5 * math.factorial(4)
        for lv, ref in zip(t.levels, replay):
            got = [x for x in range(bound) if (x % lv.modulus) in lv.H]
            assert got == materialize(ref["H"], ref["modulus"], bound)
            assert lv.h == ref["h"]


class TestStep:
    def test_level_two_candidates(self):
        oracle = FiniteOracle([0])
        t = construct(oracle, HALF, 2)
        assert t.levels[1].k_chosen == 1  # k=0 gives exactly 1/2, not > 1/2

    def test_level_three_takes_k_zero(self):
        lv = construct(FiniteOracle([0]), HALF, 3).levels[-1]
        assert lv.k_chosen == 0
        assert lv.sum_upper == Fraction(4, 6)

    def test_candidate_density_monotone_in_k(self):
        # nested candidates: evaluate every cutoff by hand and check order
        oracle = PrimesOracle()
        t = construct(oracle, Fraction(9, 10), 5)
        prev = t.levels[3]
        big = prev.modulus * 5
        cover = oracle.cover_cached(big)
        h_prime = prev.H.discard(prev.h)
        base = rebase(PeriodicSet(prev.modulus, h_prime), big)
        densities = []
        for k in range(prev.n + 1):
            bits = base.residues.bits().copy()
            for j in range(k + 1):
                bits[(prev.h + j * prev.modulus) % big] = 1
            cand = PeriodicSet(big, ResidueSet.from_bits(bits))
            densities.append(sumset_mod(cand, cover).density())
        assert densities == sorted(densities)

    def test_construct_never_calls_the_convolution(self, monkeypatch):
        # the builder tiles the carried lower sumset; only check_claimA
        # convolves, so its certificates are an independent re-derivation
        def refuse(*args, **kwargs):
            raise AssertionError("the builder must not convolve or rebase")

        for spec, alpha in (("primes", HALF), ("powers", Fraction(9, 10)),
                            ("factorials", Fraction(1, 3)), ("finite:0,24,7", HALF)):
            oracle = parse_oracle(spec)
            with monkeypatch.context() as patched:
                for module in (construction, sets):
                    for name in ("sumset_mod", "rebase"):
                        if hasattr(module, name):
                            patched.setattr(module, name, refuse)
                t = construct(oracle, alpha, 7)
            assert check_claimA(t, oracle).ok

    def test_check_convolves_once_per_level(self, monkeypatch):
        # H = H' ∪ {h}: U is L's sumset plus one rotated cover, and nesting
        # reads rows of the next level, so no level is convolved twice or tiled
        oracle = PrimesOracle()
        t = construct(oracle, HALF, 8)
        convolved = []
        real = construction.sumset_mod

        def counting(p, c):
            convolved.append(p.modulus)
            return real(p, c)

        def refuse(*args, **kwargs):
            raise AssertionError("the check must not rebase")

        monkeypatch.setattr(construction, "sumset_mod", counting)
        monkeypatch.setattr(construction, "rebase", refuse, raising=False)
        monkeypatch.setattr(sets, "rebase", refuse)
        assert check_claimA(t, oracle).ok
        assert convolved == [lv.modulus for lv in t.levels]

    def test_stepping_needs_the_carried_lower_sumset(self):
        oracle = FiniteOracle([0])
        built = construct(oracle, HALF, 3)
        assert all(lv.lower_sumset is None for lv in built.levels)
        loaded, _ = tower_from_json(tower_to_json(built))
        with pytest.raises(ValueError, match="no lower sumset"):
            step(loaded.top, oracle.cover_cached(24), HALF)

    def test_step_carries_the_lower_sumset(self):
        def lower_sumset(lv):  # (H minus h) + cover(n!) mod n!, by convolution
            lower = sumset_mod(PeriodicSet(lv.modulus, lv.H.discard(lv.h)),
                               oracle.cover_cached(lv.modulus))
            return lower.residues.bits()

        oracle = PrimesOracle()
        t = construct(oracle, Fraction(1, 3), 4)
        lv = step(replace(t.top, lower_sumset=lower_sumset(t.top)),
                  oracle.cover_cached(120), Fraction(1, 3))
        assert np.array_equal(lv.lower_sumset, lower_sumset(lv))
        assert lv.sum_lower == Fraction(int(np.count_nonzero(lv.lower_sumset)), lv.modulus)

    def test_cardinality_recurrence(self):
        t = construct(PrimesOracle(), Fraction(1, 3), 7)
        for prev, cur in zip(t.levels, t.levels[1:]):
            assert len(cur.H) == cur.n * (len(prev.H) - 1) + cur.k_chosen + 1

    def test_density_a_non_increasing_with_bounded_drop(self):
        t = construct(FactorialsOracle(), Fraction(1, 3), 7)
        for prev, cur in zip(t.levels, t.levels[1:]):
            assert cur.density_a <= prev.density_a
            assert prev.density_a - cur.density_a <= Fraction(1, prev.modulus)


class TestConstructValidation:
    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            construct(FiniteOracle([0]), Fraction(3, 2), 3)

    def test_depth_cap(self):
        with pytest.raises(ResourceLimitError):
            construct(FiniteOracle([0]), HALF, 11)

    def test_heuristic_oracle_warns(self):
        from buckdens.oracles import EnumeratedOracle
        oracle = EnumeratedOracle(lambda n: n % 2 == 0, 1000)
        with pytest.warns(UserWarning, match="under-approximate"):
            t = construct(oracle, HALF, 3)
        assert not t.exact


class TestClaimA:
    @pytest.mark.parametrize("spec", ["finite:0", "factorials", "powers", "primes"])
    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 3),
                                       Fraction(1, 2), Fraction(9, 10)])
    def test_certificates_hold_to_depth_six(self, spec, alpha):
        oracle = parse_oracle(spec)
        t = construct(oracle, alpha, 6)
        report = check_claimA(t, oracle)
        assert report.ok
        for c in report.checks:
            assert c.lower <= alpha < c.upper

    def test_factorials_width_bound(self):
        oracle = FactorialsOracle()
        t = construct(oracle, Fraction(1, 3), 6)
        report = check_claimA(t, oracle)
        top = report.checks[-1]
        assert top.upper - top.lower <= Fraction(1, 120)

    def test_tampered_tower_is_caught(self):
        oracle = FiniteOracle([0])
        t = construct(oracle, HALF, 4)
        lv = t.levels[2]
        dropped = lv.H.discard(2)  # 2 in H_3 = {0,1,2,4}, and 2 != h_3
        bad_levels = list(t.levels)
        bad_levels[2] = replace(lv, H=dropped,
                                density_a=Fraction(len(dropped), lv.modulus))
        bad = Tower(alpha=t.alpha, oracle_spec=t.oracle_spec, exact=t.exact,
                    levels=bad_levels)
        report = check_claimA(bad, oracle)
        assert not report.ok
        assert report.first_violation() in (2, 3)

    def test_marked_element_beyond_modulus_is_caught(self):
        # h + n! has the same residue, so it is "in H", but it is not in [0, n!)
        oracle = FactorialsOracle()
        t = construct(oracle, Fraction(1, 3), 5)
        top = t.levels[-1]
        bad = Tower(alpha=t.alpha, oracle_spec=t.oracle_spec, exact=t.exact,
                    levels=t.levels[:-1] + [replace(top, h=top.h + top.modulus)])
        report = check_claimA(bad, oracle)
        assert not report.ok
        assert report.first_violation() == 5


class TestBounds:
    def test_a_bounds_b_zero(self):
        t = construct(FiniteOracle([0]), HALF, 6)
        iv = a_bounds(t)
        assert iv.upper == HALF + Fraction(1, 720)
        assert iv.lower == HALF
        assert iv.width <= Fraction(1, 720)

    def test_a_bounds_width_always_small(self):
        for spec in ("primes", "factorials"):
            oracle = parse_oracle(spec)
            t = construct(oracle, Fraction(1, 3), 6)
            assert a_bounds(t).width <= Fraction(1, 720)

    def test_sum_bounds_straddle_alpha_with_eps_width(self):
        oracle = FactorialsOracle()
        alpha = Fraction(1, 3)
        t = construct(oracle, alpha, 6)
        sb = sum_bounds(t, oracle)
        assert sb.final.lower <= alpha < sb.final.upper
        assert sb.final.width <= Fraction(1, 120)
        for n, lower, upper, eps in sb.per_level:
            assert upper - lower <= eps

    def test_sum_bounds_primes_width(self):
        oracle = PrimesOracle()
        t = construct(oracle, HALF, 8)
        sb = sum_bounds(t, oracle)
        assert sb.final.width <= Fraction(9220, math.factorial(8))
        assert float(sb.final.width) <= 0.2290

    def test_level_bounds_collapse_as_depth_grows(self):
        oracle = FiniteOracle([0])
        t = construct(oracle, HALF, 8)
        sb = sum_bounds(t, oracle)
        for n, lower, upper, _ in sb.per_level[1:]:
            assert upper - lower <= Fraction(1, math.factorial(n))


class TestMembership:
    def test_b_zero_trace(self):
        t = construct(FiniteOracle([0]), HALF, 4)
        # 3 mod 2 = 1 in H_2 but 3 mod 6 = 3 not in H_3
        assert membership(t, 3) == "out"
        assert membership(t, 0) == "in_at_depth"  # h_4 = 1, so 0 is settled
        assert membership(t, t.top.h) == "exceptional"

    def test_out_is_definitive_per_level(self):
        oracle = PrimesOracle()
        t = construct(oracle, Fraction(1, 3), 5)
        for x in range(200):
            status = membership(t, x)
            in_all = all((x % lv.modulus) in lv.H for lv in t.levels)
            assert (status == "out") == (not in_all)

    def test_negative_rejected(self):
        t = construct(FiniteOracle([0]), HALF, 3)
        with pytest.raises(ValueError):
            membership(t, -1)


class TestCountA:
    def test_trivial(self):
        t = construct(FiniteOracle([0]), Fraction(1), 3)
        assert count_A(t, 100) == (100, 100)

    def test_alpha_zero_upper_counts_single_class(self):
        t = construct(FiniteOracle([0]), Fraction(0), 4)
        lower, upper = count_A(t, 100)
        assert upper == 100 // 24  # x ≡ 0 mod 24, x in [1, 100]
        assert lower <= 1  # true A = {0}

    def test_interval_brackets_definite_members(self):
        oracle = FactorialsOracle()
        t = construct(oracle, Fraction(1, 3), 6)
        horizon = 50_000
        lower, upper = count_A(t, horizon)
        definite = sum(1 for x in range(1, horizon + 1)
                       if membership(t, x) == "in_at_depth")
        possible = sum(1 for x in range(1, horizon + 1)
                       if membership(t, x) != "out")
        assert lower <= definite <= possible <= upper

    def test_width_bound(self):
        t = construct(FiniteOracle([0]), HALF, 6)
        horizon = 10**5
        lower, upper = count_A(t, horizon)
        n = t.top.n
        assert upper - lower <= horizon / math.factorial(n) \
            + horizon * 2 / math.factorial(n + 1) + 2


class TestSerialization:
    @pytest.mark.parametrize("spec,alpha", [("primes", Fraction(1, 2)),
                                            ("factorials", Fraction(1, 3)),
                                            ("finite:0", Fraction(1)),
                                            ("powers", Fraction(9, 10))])
    def test_round_trip_byte_exact(self, spec, alpha):
        oracle = parse_oracle(spec)
        t = construct(oracle, alpha, 5)
        config = {"b": spec, "alpha": str(alpha), "depth": 5}
        text = tower_to_json(t, config)
        loaded, cfg = tower_from_json(text)
        assert tower_to_json(loaded, cfg) == text
        assert cfg == config

    def test_reloaded_tower_reverifies_identically(self):
        oracle = PrimesOracle()
        t = construct(oracle, HALF, 6)
        loaded, _ = tower_from_json(tower_to_json(t))
        ra = check_claimA(t, oracle)
        rb = check_claimA(loaded, PrimesOracle())
        assert rb.ok
        assert [(c.n, c.lower, c.upper) for c in ra.checks] == \
            [(c.n, c.lower, c.upper) for c in rb.checks]

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            tower_from_json('{"schema": "nope", "levels": []}')


class TestNesting:
    @pytest.mark.parametrize("spec", ["finite:0", "primes", "powers"])
    def test_claim_inclusions_directly(self, spec):
        oracle = parse_oracle(spec)
        t = construct(oracle, Fraction(1, 3), 6)
        for prev, cur in zip(t.levels, t.levels[1:]):
            h_prime = prev.H.discard(prev.h)
            lo = rebase(PeriodicSet(prev.modulus, h_prime), cur.modulus)
            hi = rebase(PeriodicSet(prev.modulus, prev.H), cur.modulus)
            assert lo.residues.issubset(cur.H)
            assert cur.H.issubset(hi.residues)
