import math
from fractions import Fraction

import numpy as np
import pytest

from buckdens.construction import CertificateError, Tower, construct, tower_from_json, tower_to_json
from buckdens.oracles import FactorialsOracle, FiniteOracle, PrimesOracle, parse_oracle
from buckdens.sets import ResourceLimitError
from buckdens.verify import (
    a_window,
    cross_density_check,
    enumerate_sumset,
    sampling_slack,
    sumset_window,
    theorem_report,
)

HALF = Fraction(1, 2)


class TestAWindow:
    def test_trivial_tower_is_everything(self):
        t = construct(FiniteOracle([0]), Fraction(1), 3)
        definite, exceptional = a_window(t, 50)
        assert definite.sum() == 51 and exceptional.sum() == 0

    def test_b_zero_half(self):
        t = construct(FiniteOracle([0]), HALF, 4)
        definite, exceptional = a_window(t, 100)
        # exceptional = the single class h_4 mod 4!
        assert exceptional.sum() == len(range(t.top.h, 101, 24))
        marked = np.flatnonzero(exceptional)
        assert np.all(marked % 24 == t.top.h)
        # definite members really sit in every level's residue set
        for x in np.flatnonzero(definite):
            for lv in t.levels:
                assert (int(x) % lv.modulus) in lv.H

    def test_definite_and_exceptional_disjoint(self):
        t = construct(PrimesOracle(), Fraction(1, 3), 5)
        definite, exceptional = a_window(t, 2000)
        assert not np.any(definite & exceptional)


def window_by_double_loop(period_bits, b_values, horizon):
    m = len(period_bits)
    want = np.zeros(horizon + 1, dtype=np.uint8)
    for a in range(horizon + 1):
        if period_bits[a % m]:
            for b in b_values:
                if a + b <= horizon:
                    want[a + b] = 1
    return want


class TestSumsetWindow:
    # horizon 120 against periods M <= T, T < M <= 2T and M > 2T; from
    # M = 242 = 2(T+1) on, the reach is summed mod 256, also beyond M = 250
    @pytest.mark.parametrize("modulus", [1, 37, 120, 121, 150, 240, 241, 242, 250, 400])
    def test_matches_double_loop(self, modulus):
        rng = np.random.default_rng(modulus)
        horizon = 120
        for density in (0.02, 0.3, 0.9):
            period = (rng.random(modulus) < density).astype(np.uint8)
            for size in (1, 6, 40):
                b_vals = rng.choice(2 * horizon, size=size, replace=False)
                for extra in ([], [0], [horizon], [0, horizon]):
                    b = np.concatenate((b_vals, extra)).astype(np.int64)
                    assert np.array_equal(sumset_window(period, b, horizon),
                                          window_by_double_loop(period, b, horizon))

    def test_long_period_transforms_only_the_window(self, monkeypatch):
        # M = 2^20 > 2(T+1): the reach is summed mod 2^14, not mod M
        lengths = []
        rfft = np.fft.rfft

        def recording_rfft(a, n=None, *args, **kwargs):
            lengths.append(len(a) if n is None else n)
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recording_rfft)
        rng = np.random.default_rng(0)
        period = (rng.random(1 << 20) < 0.3).astype(np.uint8)
        b = rng.choice(6000, size=100, replace=False)
        got = sumset_window(period, b, 5000)
        assert lengths and max(lengths) == 1 << 14
        assert np.array_equal(got, window_by_double_loop(period, b, 5000))

    def test_empty_operands(self):
        ones, zeros = np.ones(30, np.uint8), np.zeros(30, np.uint8)
        assert sumset_window(zeros, np.array([1]), 9).tolist() == [0] * 10
        assert sumset_window(ones, np.array([], dtype=np.int64), 9).tolist() == [0] * 10
        assert sumset_window(ones, np.array([10, 11]), 9).tolist() == [0] * 10

    def test_period_one(self):
        # A = N: A + B is everything from min(B) on
        got = sumset_window(np.ones(1, np.uint8), np.array([7, 3, 5]), 9)
        assert got.tolist() == [0, 0, 0, 1, 1, 1, 1, 1, 1, 1]
        assert sumset_window(np.ones(1, np.uint8), np.array([0]), 0).tolist() == [1]


class TestEnumerateSumset:
    def test_trivial_tower_with_primes(self):
        # A = all of N, so A + primes covers every x >= 1 + 2 = 3 ... in fact
        # every x >= 0 + 2; the only misses in [1, T] are 1 and 2 minus what
        # small primes reach: {1} only, since 2 = 0 + 2.
        t = construct(PrimesOracle(), Fraction(1), 3)
        lo, hi = enumerate_sumset(t, PrimesOracle(), 1000)
        assert lo == hi == 999

    def test_b_zero_sumset_is_a(self):
        t = construct(FiniteOracle([0]), HALF, 6)
        horizon = 10**4
        lo, hi = enumerate_sumset(t, FiniteOracle([0]), horizon)
        assert lo <= hi
        # A has density 1/2 + 1/720; frequencies must hug that
        target = 0.5 + 1 / 720
        assert abs(lo / horizon - 0.5) < 0.01
        assert abs(hi / horizon - target) < 0.01

    def test_budget_enforced(self):
        t = construct(FiniteOracle([0]), HALF, 3)
        with pytest.raises(ResourceLimitError):
            enumerate_sumset(t, FiniteOracle([0]), 10**8)
        with pytest.raises(ValueError):
            enumerate_sumset(t, FiniteOracle([0]), 0)

    def test_monotone_in_horizon(self):
        oracle = FactorialsOracle()
        t = construct(oracle, Fraction(1, 3), 5)
        counts = [enumerate_sumset(t, oracle, T) for T in (10**3, 10**4, 10**5)]
        for (lo1, hi1), (lo2, hi2) in zip(counts, counts[1:]):
            assert lo1 <= lo2 and hi1 <= hi2


class TestTheoremReport:
    def test_factorials_third(self):
        oracle = FactorialsOracle()
        rep = theorem_report(oracle, Fraction(1, 3), 6, 10**5)
        assert rep.passed
        assert rep.interval_sum[0] <= Fraction(1, 3) < rep.interval_sum[1]
        assert rep.eps_final == Fraction(1, 120)
        row = rep.rows[-1]
        assert row.freq[0] <= float(rep.interval_sum[1]) + row.budget
        assert len(rep.level_rows) == 6

    def test_freq_tightens_with_horizon(self):
        oracle = FactorialsOracle()
        rep = theorem_report(oracle, Fraction(1, 3), 6, 10**5)
        budgets = [r.budget for r in rep.rows]
        assert budgets == sorted(budgets, reverse=True)

    def test_no_transform_longer_than_the_top_modulus(self, monkeypatch):
        # the windows come from residue thresholds mod 8!, not from a linear
        # convolution over [0, T]
        lengths = []
        rfft = np.fft.rfft

        def recording_rfft(a, n=None, *args, **kwargs):
            lengths.append(len(a) if n is None else n)
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recording_rfft)
        rep = theorem_report(PrimesOracle(), HALF, 8, 10**6)
        assert rep.passed
        assert lengths and max(lengths) <= math.factorial(8)

    def test_tampered_tower_raises(self):
        from dataclasses import replace
        oracle = FiniteOracle([0])
        t = construct(oracle, HALF, 4)
        lv = t.levels[2]
        bad_levels = list(t.levels)
        bad_levels[2] = replace(lv, H=lv.H.discard(2),
                                density_a=Fraction(len(lv.H) - 1, lv.modulus))
        bad = Tower(alpha=t.alpha, oracle_spec=t.oracle_spec, exact=t.exact,
                    levels=bad_levels)
        with pytest.raises(CertificateError):
            theorem_report(oracle, HALF, 4, 10**4, tower=bad)

    def test_json_dict_shape(self):
        rep = theorem_report(FiniteOracle([0]), HALF, 4, 10**4)
        doc = rep.to_json_dict()
        assert doc["verdict"] == "PASS"
        assert doc["schema"] == "buckdens-report-v1"
        assert len(doc["empirical"]) == len(rep.rows)
        assert all("freq_lo" in r and "budget" in r for r in doc["empirical"])

    def test_csv_output(self, tmp_path):
        rep = theorem_report(FiniteOracle([0]), HALF, 4, 10**4)
        path = tmp_path / "report.csv"
        rep.write_csv(str(path))
        text = path.read_text()
        assert "level" in text and "horizon" in text and "PASS" in text


class TestCrossDensity:
    def test_factorials_third_all_proxies_agree(self):
        oracle = FactorialsOracle()
        t = construct(oracle, Fraction(1, 3), 6)
        rep = cross_density_check(t, oracle, 10**6)
        assert rep.passed
        for v in (*rep.asymptotic, rep.banach, rep.logarithmic):
            assert abs(v - 1 / 3) <= 0.03

    def test_proxies_see_the_definite_members(self):
        oracle = FiniteOracle([0])
        t = construct(oracle, HALF, 3)
        rep = cross_density_check(t, oracle, 10**4)
        # certified interval at depth 3 is (1/2, 4/6]; the proxies see the
        # definite members only, whose density is exactly the lower bound
        for v in (*rep.asymptotic, rep.banach, rep.logarithmic):
            assert abs(v - float(t.top.sum_lower)) < 0.05

    def test_report_row_gives_the_same_block(self):
        oracle = FactorialsOracle()
        t = construct(oracle, Fraction(1, 3), 6)
        rep = theorem_report(oracle, t.alpha, 6, 10**5, tower=t)
        assert (rep.cross_density().to_json_dict()
                == cross_density_check(t, oracle, 10**5).to_json_dict())

    def test_json_dict(self):
        oracle = FiniteOracle([0])
        t = construct(oracle, HALF, 4)
        doc = cross_density_check(t, oracle, 10**4).to_json_dict()
        assert doc["verdict"] in ("PASS", "FAIL")
        assert set(doc) >= {"alpha", "interval", "banach", "logarithmic"}


class TestSamplingSlack:
    def test_values(self):
        assert sampling_slack(10**6) == pytest.approx(0.01)
        assert sampling_slack(100) == 1.0
