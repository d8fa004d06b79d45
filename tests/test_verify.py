import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from buckdens import construction, sets, verify
from buckdens.construction import CertificateError, Tower, construct, tower_from_json, tower_to_json
from buckdens.oracles import (
    FactorialsOracle,
    FiniteOracle,
    PerfectPowersOracle,
    PrimesOracle,
    parse_oracle,
)
from buckdens.density import DEFAULT_ENUM_BUDGET
from buckdens.sets import ResidueSet, ResourceLimitError
from buckdens.verify import (
    a_window,
    cross_density_check,
    enumerate_sumset,
    sampling_slack,
    sumset_window,
    theorem_report,
)

import reference_proxies
from layered import nested_operand

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
    # every a in A ∩ [0, horizon] against every b in B (the inner loop
    # vectorized), for A given by its 0/1 period
    m = len(period_bits)
    b_values = np.asarray(b_values, dtype=np.int64)
    want = np.zeros(horizon + 1, dtype=np.uint8)
    for a in range(horizon + 1):
        if period_bits[a % m]:
            want[a + b_values[b_values <= horizon - a]] = 1
    return want


class TestSumsetWindow:
    # horizon 120 against periods M <= T, T < M <= 2T and M > 2T; the
    # thresholds are taken over the whole period at every M.  The periods
    # are layered as tower periods are, so that the kernel peels them; at
    # a prime M, which has no layer, a dense period holds CORE_SIZE members
    @pytest.mark.parametrize("modulus", [1, 37, 120, 121, 150, 240, 241, 242, 250, 400])
    def test_matches_double_loop(self, modulus):
        rng = np.random.default_rng(modulus)
        horizon = 120
        for density in (0.02, 0.3, 0.9):
            period = nested_operand(modulus, rng, density)
            for size in (1, 6, 40):
                b_vals = rng.choice(2 * horizon, size=size, replace=False)
                for extra in ([], [0], [horizon], [0, horizon]):
                    b = np.concatenate((b_vals, extra)).astype(np.int64)
                    assert np.array_equal(
                        sumset_window(ResidueSet.from_bits(period), b, horizon),
                        window_by_double_loop(period, b, horizon))

    def test_unpeelable_long_period_is_refused(self, monkeypatch):
        # a random period of M = 2^20 has no layer to peel: it is refused
        # before any shift loop over its ~3·10^5 members
        def refuse(*args):
            raise AssertionError("an unpeelable period reached the shift loop")

        monkeypatch.setattr(sets, "combine_rotated", refuse)
        rng = np.random.default_rng(0)
        period = (rng.random(1 << 20) < 0.3).astype(np.uint8)
        b = rng.choice(6000, size=100, replace=False)
        with pytest.raises(ResourceLimitError, match="no periodic layer"):
            sumset_window(ResidueSet.from_bits(period), b, 5000)

    @pytest.mark.parametrize("depth", [6, 7])
    @pytest.mark.parametrize("oracle", [PrimesOracle(), PerfectPowersOracle(),
                                        FactorialsOracle(), FiniteOracle([0, 24, 7])],
                             ids=["primes", "powers", "factorials", "finite"])
    def test_tower_period_with_a_short_window(self, oracle, depth):
        # around each level modulus m, and just below and at N!, the cut
        # periods give the windows of the whole periods H∖{h} and H mod N!
        t = construct(oracle, HALF, depth)
        top = t.top
        whole = (top.H.discard(top.h).window(top.modulus), top.H.window(top.modulus))
        horizons = {top.modulus - 1, top.modulus}
        for lv in t.levels:
            m = lv.modulus
            horizons |= {m - 1, m, 2 * m - 1, 2 * m}
        for horizon in sorted(horizons - {0}):
            b = oracle.enumerate(horizon)
            for period, full in zip(verify._periods(t, horizon), whole):
                if horizon < top.modulus:
                    assert horizon < period.modulus <= 2 * horizon
                else:
                    assert period.modulus == top.modulus
                assert np.array_equal(sumset_window(period, b, horizon),
                                      window_by_double_loop(full, b, horizon))

    @pytest.mark.parametrize("modulus", [1, 7, 120, 121, 400])
    def test_first_member_table_matches_sort_and_unique(self, monkeypatch, modulus):
        # B unsorted, with members past the horizon
        tables = []
        real = verify.min_plus_mod

        def recording(period, least):
            tables.append(least.copy())
            return real(period, least)

        monkeypatch.setattr(verify, "min_plus_mod", recording)
        rng = np.random.default_rng(modulus)
        horizon = 120
        period = nested_operand(modulus, rng, 0.3)
        for size in (0, 1, 6, 40, 200):
            b = rng.choice(2 * horizon, size=size, replace=False).astype(np.int64)
            sumset_window(ResidueSet.from_bits(period), b, horizon)
            assert np.array_equal(tables.pop(), reference_proxies.first_member_table(
                b, modulus, horizon))

    def test_short_window_of_a_deep_tower_stays_small(self):
        # at T = 10^4 the depth-10 periods are cut to 10080 bytes; the
        # whole period would allocate 10! bytes per copy
        oracle = PrimesOracle()
        t = construct(oracle, HALF, 10)
        tracemalloc.start()
        try:
            verify._coverages(t, oracle, 10**4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert verify._periods(t, 10**4)[0].modulus == 2 * math.factorial(7)

    def test_empty_operands(self):
        ones, zeros = ResidueSet(30, range(30)), ResidueSet(30)
        assert sumset_window(zeros, np.array([1]), 9).tolist() == [0] * 10
        assert sumset_window(ones, np.array([], dtype=np.int64), 9).tolist() == [0] * 10
        assert sumset_window(ones, np.array([10, 11]), 9).tolist() == [0] * 10

    def test_period_one(self):
        # A = N: A + B is everything from min(B) on
        got = sumset_window(ResidueSet(1, [0]), np.array([7, 3, 5]), 9)
        assert got.tolist() == [0, 0, 0, 1, 1, 1, 1, 1, 1, 1]
        assert sumset_window(ResidueSet(1, [0]), np.array([0]), 0).tolist() == [1]


HORIZON_GUARDED = {
    "a_window": lambda t, o, h: a_window(t, h),
    "enumerate_sumset": enumerate_sumset,
    "cross_density_check": cross_density_check,
    "theorem_report": lambda t, o, h: theorem_report(o, t.alpha, t.depth, h, tower=t),
}


@pytest.mark.parametrize("horizon,error", [
    (0, ValueError), (-1, ValueError), (DEFAULT_ENUM_BUDGET + 1, ResourceLimitError)])
@pytest.mark.parametrize("name", HORIZON_GUARDED)
def test_horizon_is_refused_before_any_window(name, horizon, error, monkeypatch):
    def refuse(*args):
        raise AssertionError("B was enumerated for a refused horizon")

    oracle = FiniteOracle([0])
    t = construct(oracle, HALF, 4)
    monkeypatch.setattr(oracle, "enumerate", refuse)
    with pytest.raises(error):
        HORIZON_GUARDED[name](t, oracle, horizon)


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
        t = construct(oracle, Fraction(1, 3), 6)
        rep = theorem_report(oracle, t.alpha, 6, 10**5, tower=t)
        assert rep.passed
        assert rep.interval_sum[0] <= Fraction(1, 3) < rep.interval_sum[1]
        assert rep.eps_final == Fraction(1, 120)
        row = rep.rows[-1]
        assert row.freq[0] <= float(rep.interval_sum[1]) + row.budget
        assert len(rep.level_rows) == 6

    def test_freq_tightens_with_horizon(self):
        oracle = FactorialsOracle()
        t = construct(oracle, Fraction(1, 3), 6)
        rep = theorem_report(oracle, t.alpha, 6, 10**5, tower=t)
        budgets = [r.budget for r in rep.rows]
        assert budgets == sorted(budgets, reverse=True)

    @pytest.mark.parametrize("oracle", [PrimesOracle(), PerfectPowersOracle()],
                             ids=["primes", "powers"])
    @pytest.mark.parametrize("alpha", ["1/2", "3/4", "11/12"])
    def test_windows_take_no_transform_and_no_sumset(self, monkeypatch, oracle, alpha):
        # the windows come from min-plus peels of the tower period: no transform
        # anywhere, and sumset_mod only in check_claimA, once per level
        t = construct(oracle, Fraction(alpha), 8)
        moduli = []
        real = sets.sumset_mod

        def recording(p, c):
            moduli.append(p.modulus)
            return real(p, c)

        def refuse(*args, **kwargs):
            raise AssertionError("a verify window reached a transform")

        monkeypatch.setattr(np.fft, "rfft", refuse)
        for module in (sets, construction, verify):
            if getattr(module, "sumset_mod", None) is real:
                monkeypatch.setattr(module, "sumset_mod", recording)
        enumerate_sumset(t, oracle, 10**4)
        assert moduli == []
        rep = theorem_report(oracle, t.alpha, 8, 10**6, tower=t)
        assert rep.passed
        assert rep.rows
        assert moduli == [lv.modulus for lv in t.levels]

    @pytest.mark.parametrize("spec", ["primes", "powers", "factorials", "finite:0,24,7"])
    @pytest.mark.parametrize("alpha", ["1/12", "1/2", "3/4"])
    def test_windows_hand_min_plus_mod_only_periods_that_peel(self, monkeypatch, spec, alpha):
        # what keeps verify off exit 3: at every horizon, every period
        # theorem_report hands min_plus_mod, and every core peeled from it,
        # is shifted over (at most _SHIFT_MAX members) or has a periodic
        # layer, so that none is refused
        real_layer, real_min_plus = sets._periodic_layer, verify.min_plus_mod
        periods = []

        def peeling(x, size):
            got = real_layer(x, size)
            assert got is not None, f"{size} residues mod {x.modulus} have no layer"
            return got

        def recording(period, least):
            periods.append(period.modulus)
            return real_min_plus(period, least)

        oracle = parse_oracle(spec)
        t = construct(oracle, Fraction(alpha), 8)
        monkeypatch.setattr(sets, "_periodic_layer", peeling)
        monkeypatch.setattr(verify, "min_plus_mod", recording)
        for horizon in (1, 5, 100, 10**3, 10**4, 10**5):
            before = len(periods)
            assert theorem_report(oracle, t.alpha, 8, horizon, tower=t).passed
            assert len(periods) > before

    @pytest.mark.parametrize("oracle", [PrimesOracle(), PerfectPowersOracle()],
                             ids=["primes", "powers"])
    def test_proxies_scan_no_more_than_a_period_and_a_window(self, monkeypatch, oracle):
        # the Banach count runs over the last d offsets and one window, with
        # d = 8! the cut period; the first-member table takes no sort
        horizon = 10**6
        t = construct(oracle, HALF, 8)
        d = t.top.modulus
        assert d <= horizon   # so the period is not cut below N!
        lengths = []
        real_cumsum, real_unique = np.cumsum, np.unique
        in_window = []

        def cumsum(a, *args, **kwargs):
            lengths.append(len(a))
            return real_cumsum(a, *args, **kwargs)

        def unique(*args, **kwargs):
            assert not in_window, "sumset_window reached np.unique"
            return real_unique(*args, **kwargs)

        real_window = verify.sumset_window

        def window(*args):
            in_window.append(True)
            try:
                return real_window(*args)
            finally:
                in_window.pop()

        monkeypatch.setattr(np, "cumsum", cumsum)
        monkeypatch.setattr(np, "unique", unique)
        monkeypatch.setattr(verify, "sumset_window", window)
        theorem_report(oracle, t.alpha, 8, horizon, tower=t)
        cross_density_check(t, oracle, horizon)
        assert lengths
        assert max(lengths) <= d + horizon // 10 + 1

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

    @pytest.mark.parametrize("tower_alpha,alpha,depth", [
        (HALF, Fraction(1, 3), 4), (HALF, HALF, 3), (HALF, HALF, 5), (HALF, HALF, 0),
        (HALF, Fraction(1), 4), (Fraction(1), Fraction(1), 1)])
    def test_alpha_and_depth_must_be_the_towers(self, tower_alpha, alpha, depth):
        # a tower with no levels (alpha = 1) has depth 0
        oracle = FiniteOracle([0])
        t = construct(oracle, tower_alpha, 4)
        with pytest.raises(ValueError, match="not the tower's"):
            theorem_report(oracle, alpha, depth, 10**4, tower=t)

    def test_a_tower_is_required(self):
        with pytest.raises(TypeError, match="tower"):
            theorem_report(FiniteOracle([0]), HALF, 4, 10**4)

    def test_json_dict_shape(self):
        oracle = FiniteOracle([0])
        rep = theorem_report(oracle, HALF, 4, 10**4, tower=construct(oracle, HALF, 4))
        doc = rep.to_json_dict()
        assert doc["verdict"] == "PASS"
        assert doc["schema"] == "buckdens-report-v1"
        assert len(doc["empirical"]) == len(rep.rows)
        assert all("freq_lo" in r and "budget" in r for r in doc["empirical"])

    def test_csv_output(self, tmp_path):
        oracle = FiniteOracle([0])
        rep = theorem_report(oracle, HALF, 4, 10**4, tower=construct(oracle, HALF, 4))
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
