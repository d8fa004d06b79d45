import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import buckdens
from buckdens import density
from buckdens.density import (
    BUCK,
    DEFAULT_ENUM_BUDGET,
    DensityInterval,
    UpperDensityFn,
    axiom_suite,
    buck_upper_periodic,
    empirical_asymptotic,
    empirical_banach,
    empirical_logarithmic,
    periodic_indicator,
    proxies,
    _randrange_block,
)
from buckdens.construction import a_classes, construct
from buckdens.oracles import PrimesOracle
from buckdens.sets import (
    ResidueSet,
    ResourceLimitError,
    naturals,
    union,
)

from buckdens.verify import _coverages

import reference_proxies


class TestBuckOnPeriodic:
    def test_evens(self):
        assert buck_upper_periodic(ResidueSet(2, [0])) == Fraction(1, 2)

    def test_full_line(self):
        assert buck_upper_periodic(naturals()) == 1

    def test_union_class(self):
        assert buck_upper_periodic(ResidueSet(6, [1, 2, 3, 5])) == Fraction(2, 3)

    def test_infimum_attained_by_the_set_itself(self):
        # any finite union of APs containing P has at least P's density
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, 200))
            p = ResidueSet(k, rng.integers(0, k, size=5))
            extra = ResidueSet(int(rng.integers(1, 50)),
                                  rng.integers(0, 50, size=3))
            sup = union(p, extra)
            assert sup.density() >= buck_upper_periodic(p)


class TestConjugate:
    @given(st.integers(1, 60), st.data())
    @settings(max_examples=50)
    def test_lower_density_monotone_under_inclusion(self, k, data):
        # 1 - d(complement) respects inclusion on periodic sets, the
        # complement being the bitmap's negation
        hs = data.draw(st.lists(st.integers(0, k - 1), max_size=10))
        extra = data.draw(st.lists(st.integers(0, k - 1), max_size=10))
        p = ResidueSet(k, hs)
        q = union(p, ResidueSet(k, extra))
        lower_p = 1 - ResidueSet.from_bits(1 - p.window(k)).density()
        lower_q = 1 - ResidueSet.from_bits(1 - q.window(k)).density()
        assert lower_p <= lower_q


class TestDomain:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            DensityInterval(Fraction(1, 2), Fraction(1, 3))


def _indicator(values, horizon):
    ind = np.zeros(horizon + 1, dtype=np.uint8)
    ind[np.asarray(values)] = 1
    return ind


class TestEmpiricalAsymptotic:
    def test_evens(self):
        lo, hi = empirical_asymptotic(periodic_indicator(ResidueSet(2, [0]), 10**6), 10**6)
        assert abs(lo - 0.5) < 1e-4 and abs(hi - 0.5) < 1e-4

    def test_squares(self):
        squares = _indicator([n * n for n in range(1001)], 10**6)
        lo, hi = empirical_asymptotic(squares, 10**6)
        assert lo == pytest.approx(1e-3, rel=0.1)
        assert hi <= 1.1e-2

    def test_periodic_two_thirds(self):
        lo, hi = empirical_asymptotic(
            periodic_indicator(ResidueSet(6, [1, 2, 3, 5]), 10**6), 10**6)
        assert abs(lo - 2 / 3) < 1e-3 and abs(hi - 2 / 3) < 1e-3

    def test_sandwich_against_exact_density(self):
        # asymptotic proxies of a periodic set at T=1e6 stay within 1e-3 of
        # the exact Buck value
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = int(rng.integers(1, 500))
            p = ResidueSet(k, rng.integers(0, k, size=min(k, 12)))
            lo, hi = empirical_asymptotic(periodic_indicator(p, 10**6), 10**6)
            exact = float(buck_upper_periodic(p))
            assert abs(lo - exact) < 1e-3 and abs(hi - exact) < 1e-3


class TestEmpiricalBanachAndLog:
    def test_banach_evens(self):
        w = 10**4
        val = empirical_banach(periodic_indicator(ResidueSet(2, [0]), 10**6), w, 10**6, 2)
        assert abs(val - 0.5) <= 1 / w + 1e-12

    def test_banach_sixth(self):
        val = empirical_banach(periodic_indicator(ResidueSet(6, [0]), 10**6), 6000, 10**6, 6)
        assert val == pytest.approx(1 / 6, abs=1e-3)

    def test_banach_validates_window(self):
        with pytest.raises(ValueError):
            empirical_banach(periodic_indicator(ResidueSet(2, [0]), 100), 0, 100, 2)

    def test_log_evens(self):
        val = empirical_logarithmic(periodic_indicator(ResidueSet(2, [0]), 10**6), 10**6)
        assert val == pytest.approx(0.5, abs=1e-3)

    def test_log_finite_set_vanishes(self):
        val = empirical_logarithmic(_indicator(range(50), 10**6), 10**6)
        assert val < 1e-3

    def test_indicators_agree(self):
        p = ResidueSet(7, [2, 5])
        ind = periodic_indicator(p, 1000)
        assert ind[2] == 1 and ind[3] == 0 and ind[9] == 1
        assert int(ind.sum()) == len([x for x in range(1001) if x in p])

    def test_indicator_horizon_is_bounded(self):
        with pytest.raises(ResourceLimitError):
            periodic_indicator(ResidueSet(2, [0]), DEFAULT_ENUM_BUDGET + 1)


def _assert_proxies_match_references(ind, horizon, period):
    # the same float bits as the full scans, for every window length
    assert empirical_asymptotic(ind, horizon) == reference_proxies.asymptotic(ind, horizon)
    assert empirical_logarithmic(ind, horizon) == reference_proxies.logarithmic(ind, horizon)
    for window in range(1, horizon + 1):
        assert (empirical_banach(ind, window, horizon, period)
                == reference_proxies.banach(ind, window, horizon)), window


class TestProxiesMatchReferences:
    @given(st.integers(1, 5000), st.floats(0, 1), st.booleans(),
           st.sampled_from([np.uint8, np.bool_]), st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_random_indicators(self, horizon, density, first, dtype, seed):
        rng = np.random.default_rng(seed)
        ind = (rng.random(horizon + 1) < density).astype(dtype)
        ind[0] = first
        # period horizon + 1 holds for every indicator: the full scan
        _assert_proxies_match_references(ind, horizon, horizon + 1)

    @given(st.integers(1, 5000), st.integers(1, 300), st.floats(0, 1),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_periodic_indicators(self, horizon, modulus, density, seed):
        rng = np.random.default_rng(seed)
        bits = (rng.random(modulus) < density).astype(np.uint8)
        ind = bits[np.arange(horizon + 1) % modulus]
        _assert_proxies_match_references(ind, horizon, modulus)

    @given(st.integers(1, 5000), st.integers(1, 6000), st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_threshold_windows(self, horizon, p, seed):
        # [x >= t_{x mod p}], the shape of every A + B window
        rng = np.random.default_rng(seed)
        t = rng.integers(0, 2 * horizon + 2, size=p)
        x = np.arange(horizon + 1)
        ind = (x >= t[x % p]).astype(np.uint8)
        _assert_proxies_match_references(ind, horizon, p)

    @pytest.mark.parametrize("estimator", [
        empirical_asymptotic, empirical_logarithmic,
        lambda ind, horizon: proxies(ind, horizon, 2)])
    @pytest.mark.parametrize("horizon", [0, -5])
    def test_a_horizon_below_one_is_refused(self, estimator, horizon):
        ind = periodic_indicator(ResidueSet(2, [0]), 100)
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            estimator(ind, horizon)

    @pytest.mark.parametrize("period", [0, -3])
    def test_banach_refuses_a_period_below_one(self, period):
        ind = periodic_indicator(ResidueSet(2, [0]), 100)
        with pytest.raises(ValueError, match="period must be at least 1"):
            empirical_banach(ind, 10, 100, period)


class TestLogarithmicPastTheBlasThreshold:
    # n > 10**4, where np.dot may split the sum across OpenBLAS threads
    @pytest.mark.parametrize("horizon", [10**4 + 200, 10**5, 123457, 10**6])
    def test_bit_identical_to_the_reference(self, horizon):
        ind = (np.random.default_rng(11).random(horizon + 1) < 0.3).astype(np.uint8)
        assert empirical_logarithmic(ind, horizon) == reference_proxies.logarithmic(ind, horizon)


class TestAsymptoticGrid:
    @pytest.mark.parametrize("horizons", [range(1, 3001), [10**e for e in range(8)]])
    def test_equals_np_unique(self, horizons):
        for horizon in horizons:
            grid = np.geomspace(max(1, horizon // 100), horizon, num=60).astype(np.int64)
            ns = density._asymptotic_grid(horizon)
            assert ns.dtype == np.int64
            assert np.array_equal(ns, np.unique(grid)), horizon

    def test_proxies_leave_numpy_ma_out(self):
        # np.unique imports numpy.ma on its first call, a fixed cost on
        # every fresh verify or estimate process
        script = """\
import sys
from fractions import Fraction
from buckdens.construction import a_classes, construct
from buckdens.density import periodic_indicator, proxies
from buckdens.oracles import PrimesOracle
from buckdens.sets import ResidueSet
from buckdens.verify import theorem_report
oracle = PrimesOracle()
tower = construct(oracle, Fraction(1, 2), 5)
theorem_report(oracle, tower.alpha, tower.depth, 10**5, tower=tower)
proxies(periodic_indicator(ResidueSet(30, [1, 7, 11, 13]), 10**4), 10**4, 30)
print("numpy.ma" in sys.modules)
"""
        src = str(Path(buckdens.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestProxies:
    """``proxies`` is the three estimators' calls, with the Banach window
    ``max(1, horizon // 10)`` unless one is given."""

    def _separate(self, ind, horizon, period, window):
        return (empirical_asymptotic(ind, horizon),
                empirical_banach(ind, window, horizon, period),
                empirical_logarithmic(ind, horizon))

    @pytest.mark.parametrize("horizon, window, expected_window", [
        (1, None, 1), (9, None, 1), (10, None, 1), (10**4, None, 1000),
        (10**4, 137, 137), (100, 1, 1)])
    def test_an_estimate_set(self, horizon, window, expected_window):
        pset = ResidueSet(30, [1, 7, 11, 13, 17, 19, 23, 29])
        ind = periodic_indicator(pset, horizon)
        assert proxies(ind, horizon, 30, window) == \
            self._separate(ind, horizon, 30, expected_window)

    def test_a_verify_window(self):
        oracle = PrimesOracle()
        tower = construct(oracle, Fraction(1, 2), 6)
        cov, _, period = _coverages(tower, a_classes(tower), oracle, 10**4)
        for horizon in (100, 1000, 10**4):
            window = cov[: horizon + 1]
            assert proxies(window, horizon, period) == \
                self._separate(window, horizon, period, horizon // 10)


class TestAxiomSuite:
    def test_buck_passes(self):
        report = axiom_suite(BUCK, samples=300, seed=42)
        assert report.all_passed
        assert set(report.results) == {"F1", "F2", "F3", "F4"}
        assert report.samples == 300
        doc = json.loads(report.to_json())
        assert [a["samples"] for a in doc["axioms"]] == [300] * 4

    def test_doubled_evaluator_fails_f1_with_witness(self):
        broken = UpperDensityFn("doubled", lambda p: p.density() * 2)
        report = axiom_suite(broken, samples=100, seed=0)
        assert not report.results["F1"].passed
        assert report.results["F1"].counterexample is not None
        assert "modulus" in report.results["F1"].counterexample["set"]

    def test_f4_spot_check(self):
        from buckdens.sets import affine
        img = affine(ResidueSet(2, [0]), 3, 2)
        assert BUCK.eval_periodic(img) == Fraction(1, 6)

    def test_report_is_json(self):
        report = axiom_suite(BUCK, samples=20, seed=3)
        doc = json.loads(report.to_json())
        assert doc["verdict"] == "PASS"
        assert len(doc["axioms"]) == 4


class TestRandrangeBlock:
    # the suite's sets must be the ones a loop of randrange calls draws, and
    # the generator must end in the same state for the draws that follow
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 2**13 - 1, 2**13 + 1, 10**4])
    @pytest.mark.parametrize("count", [0, 1, 2, 17, 1000])
    def test_matches_a_loop_of_randrange(self, k, count):
        loop_rng, block_rng = random.Random(k * 1000 + count), random.Random(k * 1000 + count)
        want = [loop_rng.randrange(k) for _ in range(count)]
        assert _randrange_block(block_rng, k, count).tolist() == want
        assert block_rng.getstate() == loop_rng.getstate()
