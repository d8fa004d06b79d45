from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckdens.density import (
    BUCK,
    DEFAULT_ENUM_BUDGET,
    DensityInterval,
    UpperDensityFn,
    axiom_suite,
    buck_upper_finite,
    buck_upper_periodic,
    conjugate,
    empirical_asymptotic,
    empirical_banach,
    empirical_logarithmic,
    in_domain,
    periodic_indicator,
)
from buckdens.sets import (
    ResourceLimitError,
    complement,
    density,
    make_periodic,
    naturals,
    union,
)


class TestBuckOnPeriodic:
    def test_evens(self):
        assert buck_upper_periodic(make_periodic(2, [0])) == Fraction(1, 2)

    def test_full_line(self):
        assert buck_upper_periodic(naturals()) == 1

    def test_union_class(self):
        assert buck_upper_periodic(make_periodic(6, [1, 2, 3, 5])) == Fraction(2, 3)

    def test_infimum_attained_by_the_set_itself(self):
        # any finite union of APs containing P has at least P's density
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, 200))
            p = make_periodic(k, rng.integers(0, k, size=5))
            extra = make_periodic(int(rng.integers(1, 50)),
                                  rng.integers(0, 50, size=3))
            sup = union(p, extra)
            assert density(sup) >= buck_upper_periodic(p)


class TestBuckOnFinite:
    def test_singleton(self):
        assert buck_upper_finite({5}) == 0

    def test_empty(self):
        assert buck_upper_finite(set()) == 0

    def test_large_block(self):
        assert buck_upper_finite(range(10**6 + 1)) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            buck_upper_finite({-1})


class TestConjugate:
    def test_split(self):
        assert conjugate(Fraction(1, 2)) == Fraction(1, 2)

    def test_edges(self):
        assert conjugate(Fraction(0)) == 1
        assert conjugate(Fraction(1)) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            conjugate(Fraction(3, 2))

    @given(st.fractions(min_value=0, max_value=1))
    @settings(max_examples=100, deadline=None)
    def test_involution(self, x):
        assert conjugate(conjugate(x)) == x

    @given(st.integers(1, 60), st.data())
    @settings(max_examples=50, deadline=None)
    def test_lower_density_monotone_under_inclusion(self, k, data):
        # 1 - d(complement) respects inclusion on periodic sets
        hs = data.draw(st.lists(st.integers(0, k - 1), max_size=10))
        extra = data.draw(st.lists(st.integers(0, k - 1), max_size=10))
        p = make_periodic(k, hs)
        q = union(p, make_periodic(k, extra))
        lower_p = 1 - density(complement(p))
        lower_q = 1 - density(complement(q))
        assert lower_p <= lower_q


class TestDomain:
    def test_agreeing_bounds(self):
        assert in_domain(Fraction(1, 2), Fraction(1, 2))

    def test_gap(self):
        assert not in_domain(Fraction(0), Fraction(1))

    def test_bad_order(self):
        with pytest.raises(ValueError):
            in_domain(Fraction(1), Fraction(0))

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            DensityInterval(Fraction(1, 2), Fraction(1, 3))


def _indicator(values, horizon):
    ind = np.zeros(horizon + 1, dtype=np.uint8)
    ind[np.asarray(values)] = 1
    return ind


class TestEmpiricalAsymptotic:
    def test_evens(self):
        lo, hi = empirical_asymptotic(periodic_indicator(make_periodic(2, [0]), 10**6), 10**6)
        assert abs(lo - 0.5) < 1e-4 and abs(hi - 0.5) < 1e-4

    def test_squares(self):
        squares = _indicator([n * n for n in range(1001)], 10**6)
        lo, hi = empirical_asymptotic(squares, 10**6)
        assert lo == pytest.approx(1e-3, rel=0.1)
        assert hi <= 1.1e-2

    def test_periodic_two_thirds(self):
        lo, hi = empirical_asymptotic(
            periodic_indicator(make_periodic(6, [1, 2, 3, 5]), 10**6), 10**6)
        assert abs(lo - 2 / 3) < 1e-3 and abs(hi - 2 / 3) < 1e-3

    def test_sandwich_against_exact_density(self):
        # asymptotic proxies of a periodic set at T=1e6 stay within 1e-3 of
        # the exact Buck value
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = int(rng.integers(1, 500))
            p = make_periodic(k, rng.integers(0, k, size=min(k, 12)))
            lo, hi = empirical_asymptotic(periodic_indicator(p, 10**6), 10**6)
            exact = float(buck_upper_periodic(p))
            assert abs(lo - exact) < 1e-3 and abs(hi - exact) < 1e-3


class TestEmpiricalBanachAndLog:
    def test_banach_evens(self):
        w = 10**4
        val = empirical_banach(periodic_indicator(make_periodic(2, [0]), 10**6), w, 10**6)
        assert abs(val - 0.5) <= 1 / w + 1e-12

    def test_banach_sixth(self):
        val = empirical_banach(periodic_indicator(make_periodic(6, [0]), 10**6), 6000, 10**6)
        assert val == pytest.approx(1 / 6, abs=1e-3)

    def test_banach_validates_window(self):
        with pytest.raises(ValueError):
            empirical_banach(periodic_indicator(make_periodic(2, [0]), 100), 0, 100)

    def test_log_evens(self):
        val = empirical_logarithmic(periodic_indicator(make_periodic(2, [0]), 10**6), 10**6)
        assert val == pytest.approx(0.5, abs=1e-3)

    def test_log_finite_set_vanishes(self):
        val = empirical_logarithmic(_indicator(range(50), 10**6), 10**6)
        assert val < 1e-3

    def test_indicators_agree(self):
        p = make_periodic(7, [2, 5])
        ind = periodic_indicator(p, 1000)
        assert ind[2] == 1 and ind[3] == 0 and ind[9] == 1
        assert int(ind.sum()) == len([x for x in range(1001) if p.member(x)])

    def test_indicator_horizon_is_bounded(self):
        with pytest.raises(ResourceLimitError):
            periodic_indicator(make_periodic(2, [0]), DEFAULT_ENUM_BUDGET + 1)


class TestAxiomSuite:
    def test_buck_passes(self):
        report = axiom_suite(BUCK, samples=300, seed=42)
        assert report.all_passed
        assert set(report.results) == {"F1", "F2", "F3", "F4"}
        assert all(r.samples >= 300 for r in report.results.values())

    def test_doubled_evaluator_fails_f1_with_witness(self):
        broken = UpperDensityFn("doubled", True, lambda p: density(p) * 2)
        report = axiom_suite(broken, samples=100, seed=0)
        assert not report.results["F1"].passed
        assert report.results["F1"].counterexample is not None
        assert "modulus" in report.results["F1"].counterexample["set"]

    def test_f4_spot_check(self):
        from buckdens.sets import affine
        img = affine(make_periodic(2, [0]), 3, 2)
        assert BUCK.eval_periodic(img) == Fraction(1, 6)

    def test_report_is_json(self):
        import json
        report = axiom_suite(BUCK, samples=20, seed=3)
        doc = json.loads(report.to_json())
        assert doc["verdict"] == "PASS"
        assert len(doc["axioms"]) == 4
