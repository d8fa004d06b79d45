import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from buckdens import construction, sets, verify
from buckdens.cli import main
from buckdens.construction import (CertificateError, Tower, a_classes, check_claimA,
                                   construct, tower_from_json, tower_to_json)
from buckdens.oracles import (
    FactorialsOracle,
    FiniteOracle,
    PerfectPowersOracle,
    PrimesOracle,
    parse_oracle,
)
from buckdens.density import DEFAULT_ENUM_BUDGET, empirical_banach
from buckdens.sets import ResourceLimitError
from buckdens.verify import (
    a_window,
    cross_density_check,
    enumerate_sumset,
    sampling_slack,
    sumset_window,
    theorem_report,
)

import reference_proxies

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

    def test_a_marked_element_outside_h_is_refused(self):
        # h_5 moved to a lift of h_4 that H_5 does not hold, past lift k_5:
        # h_5 is no longer lift k_5, and A's classes are read from k_5
        t = construct(PrimesOracle(), HALF, 5)
        prev, top = t.levels[-2], t.top
        h = next(c for c in range(prev.h, top.modulus, prev.modulus) if c not in top.H)
        bad = replace(t, levels=t.levels[:-1] + [replace(top, h=h)])
        with pytest.raises(CertificateError, match="level 5 marks"):
            a_window(bad, 2 * top.modulus)

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


def class_chain(modulus):
    """The divisors 1 | p | p·q | ... | modulus, one prime factor more at
    each step."""
    out, m = [1], 1
    for p, e in sets.factorize(modulus).items():
        for _ in range(e):
            m *= p
            out.append(m)
    return out


def class_bits(classes, modulus):
    """The 0/1 period mod ``modulus`` of the union of ``classes``."""
    bits = np.zeros(modulus, dtype=np.uint8)
    for m, c in classes:
        bits[c::m] = 1
    return bits


def tower_bits(t):
    """H∖{h} and H at the top level of a tower, as 0/1 periods mod N!."""
    top = t.top
    return top.H.discard(top.h).window(top.modulus), top.H.window(top.modulus)


class TestSumsetWindow:
    # horizon 120 against classes mod the divisors of M <= T, T < M <= 2T
    # and M > 2T, a few at each divisor of a chain, so that the thresholds
    # are lifted over several moduli to the largest one up to the
    # horizon, and every class mod a larger one adds its member plus B
    @pytest.mark.parametrize("modulus", [1, 37, 120, 121, 150, 240, 241, 242, 250, 400])
    def test_matches_double_loop(self, modulus):
        rng = np.random.default_rng(modulus)
        horizon = 120
        for count in (1, 3, 12):
            classes = [(m, int(c)) for m in class_chain(modulus)
                       for c in rng.choice(m, size=min(m, count), replace=False)]
            for size in (1, 6, 40):
                b_vals = rng.choice(2 * horizon, size=size, replace=False)
                for extra in ([], [0], [horizon], [0, horizon]):
                    b = np.concatenate((b_vals, extra)).astype(np.int64)
                    assert np.array_equal(
                        sumset_window(classes, b, horizon),
                        window_by_double_loop(class_bits(classes, modulus), b, horizon))

    @pytest.mark.parametrize("depth", [6, 7])
    @pytest.mark.parametrize("oracle", [PrimesOracle(), PerfectPowersOracle(),
                                        FactorialsOracle(), FiniteOracle([0, 24, 7])],
                             ids=["primes", "powers", "factorials", "finite"])
    def test_tower_period_with_a_short_window(self, oracle, depth):
        # around each level modulus m, and just below and at N!: A's windows
        # are the whole periods H∖{h} and H mod N! cut to the window, and so
        # are the class windows of A + B; the proxies' period is N! or, past
        # the window, T + 1, and scans to the full scan's Banach maximum
        t = construct(oracle, HALF, depth)
        top = t.top
        horizons = {top.modulus - 1, top.modulus}
        for lv in t.levels:
            m = lv.modulus
            horizons |= {m - 1, m, 2 * m - 1, 2 * m}
        for horizon in sorted(horizons - {0}):
            b = oracle.enumerate(horizon)
            lower, upper = (np.resize(bits, horizon + 1) for bits in tower_bits(t))
            definite, exceptional = a_window(t, horizon)
            assert np.array_equal(definite, lower)
            assert np.array_equal(exceptional, upper - lower)
            lo, hi, d = verify._coverages(t, oracle, horizon)
            assert d == (top.modulus if top.modulus <= horizon else horizon + 1)
            for window, full in zip((lo, hi), tower_bits(t)):
                assert np.array_equal(window, window_by_double_loop(full, b, horizon))
            for ind in (lo, definite):
                for width in {1, max(1, horizon // 10), horizon}:
                    assert (empirical_banach(ind, width, horizon, d)
                            == empirical_banach(ind, width, horizon, horizon + 1))

    @pytest.mark.parametrize("modulus", [1, 7, 120, 121, 400])
    def test_first_member_table_matches_sort_and_unique(self, modulus):
        # B unsorted, with members past the horizon
        rng = np.random.default_rng(modulus)
        horizon = 120
        for size in (0, 1, 6, 40, 200):
            b = rng.choice(2 * horizon, size=size, replace=False).astype(np.int64)
            cut = b[b <= horizon].astype(np.int32)
            assert np.array_equal(verify._first_members(cut, modulus, horizon),
                                  reference_proxies.first_member_table(b, modulus, horizon))

    def test_short_window_of_a_deep_tower_stays_small(self):
        # at T = 10^4 the depth-10 windows take no table of 10! entries
        oracle = PrimesOracle()
        t = construct(oracle, HALF, 10)
        tracemalloc.start()
        try:
            verify._coverages(t, oracle, 10**4)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            a_window(t, 10**4)
            _, a_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert a_peak < 1 << 20

    def test_empty_operands(self):
        ones = [(30, c) for c in range(30)]
        assert sumset_window([], np.array([1]), 9).tolist() == [0] * 10
        assert sumset_window(ones, np.array([], dtype=np.int64), 9).tolist() == [0] * 10
        assert sumset_window(ones, np.array([10, 11]), 9).tolist() == [0] * 10

    def test_period_one(self):
        # A = N: A + B is everything from min(B) on
        got = sumset_window([(1, 0)], np.array([7, 3, 5]), 9)
        assert got.tolist() == [0, 0, 0, 1, 1, 1, 1, 1, 1, 1]
        assert sumset_window([(1, 0)], np.array([0]), 0).tolist() == [1]

    def test_long_thresholds_hold_no_table_past_the_largest_modulus(self):
        # classes at 9! and 10! with T = 10^6: the thresholds live mod 9!,
        # and the classes mod 10! add their member plus B directly
        horizon = 10**6
        classes = [(720, 0), (math.factorial(9), 5), (math.factorial(10), 120),
                   (math.factorial(10), 363000)]
        b = np.arange(0, horizon + 1, 97, dtype=np.int64)
        tracemalloc.start()
        try:
            got = sumset_window(classes, b, horizon)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < horizon + 6 * 4 * math.factorial(9) + (1 << 20)
        bits = class_bits(classes, math.factorial(10))
        assert np.array_equal(got[:5000], window_by_double_loop(bits, b, 4999))


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


def unnested_top(t):
    """The tower with one member of its top H cleared, one off the lifts of
    h_{N-1}, so that the top level no longer nests in level N - 1."""
    prev, top = t.levels[-2], t.top
    r = next(r for r in top.H if (r - prev.h) % prev.modulus)
    return replace(t, levels=t.levels[:-1] + [replace(top, H=top.H.discard(r))])


CLASS_READERS = {"enumerate_sumset": enumerate_sumset,
                 "cross_density_check": cross_density_check,
                 "a_window": lambda t, o, h: a_window(t, h)}


class TestClassReader:
    # the windows read A's classes from each level's k_n and h_n and never
    # read its H: a tower whose only fault is an H reads as the tower the
    # k's build (the CLI runs check_claimA first, which fails it), and a
    # bad k_n or h_n is refused
    @pytest.mark.parametrize("name", CLASS_READERS)
    def test_a_tampered_h_is_not_read(self, name):
        oracle = PrimesOracle()
        t = construct(oracle, HALF, 6)
        call = CLASS_READERS[name]
        want, got = call(t, oracle, 10**4), call(unnested_top(t), oracle, 10**4)
        if name == "a_window":
            assert all(np.array_equal(a, b) for a, b in zip(want, got))
        else:
            assert got == want

    @pytest.mark.parametrize("name", CLASS_READERS)
    def test_a_bad_k_or_h_is_refused(self, name):
        # k_6 past its range with h_6 moved along, k_6 off h_6, and h_6
        # moved to a member of H_6 off the lifts of h_5
        oracle = PrimesOracle()
        t = construct(oracle, HALF, 6)
        prev, top = t.levels[-2], t.top
        off = next(r for r in top.H if (r - prev.h) % prev.modulus)
        for edit in ({"k_chosen": 6, "h": prev.h + 6 * prev.modulus},
                     {"k_chosen": top.k_chosen + 1}, {"h": off}):
            bad = replace(t, levels=t.levels[:-1] + [replace(top, **edit)])
            assert check_claimA(bad, oracle).first_violation() == 6
            with pytest.raises(CertificateError, match="level 6 marks"):
                CLASS_READERS[name](bad, oracle, 10**4)

    @pytest.mark.parametrize("spec", ["primes", "powers", "factorials", "finite:0,24,7"])
    @pytest.mark.parametrize("alpha", [HALF, Fraction(3, 4)], ids=["half", "three-quarters"])
    def test_the_classes_and_the_marked_class_make_the_top_h(self, spec, alpha):
        oracle = parse_oracle(spec)
        t = construct(oracle, alpha, 8)
        assert check_claimA(t, oracle).ok
        top = t.top
        bits = class_bits(a_classes(t) + [(top.modulus, top.h)], top.modulus)
        assert np.array_equal(bits, top.H.window(top.modulus))

    def test_a_tower_with_no_levels_is_the_one_class_of_n(self):
        assert a_classes(construct(PrimesOracle(), Fraction(1), 8)) == [(1, 0)]

    def test_verify_on_a_tower_with_one_flipped_bit_exits_two(self, tmp_path, capsys):
        oracle = PrimesOracle()
        path = tmp_path / "bad.json"
        path.write_text(tower_to_json(unnested_top(construct(oracle, HALF, 6))))
        code = main(["verify", "--tower", str(path), "--b", "primes", "--horizon", "1000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "certificate error: certificate FAILED at level 6\n"


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
        # the windows come from the tower's classes and the check from its
        # own rotations: sumset_mod is called nowhere (and no module names
        # an FFT: test_ownership.test_no_module_names_fft)
        t = construct(oracle, Fraction(alpha), 8)
        moduli = []
        real = sets.sumset_mod

        def recording(p, c):
            moduli.append(p.modulus)
            return real(p, c)

        for module in (sets, construction, verify):
            if getattr(module, "sumset_mod", None) is real:
                monkeypatch.setattr(module, "sumset_mod", recording)
        enumerate_sumset(t, oracle, 10**4)
        rep = theorem_report(oracle, t.alpha, 8, 10**6, tower=t)
        assert rep.passed
        assert rep.rows
        assert moduli == []

    @pytest.mark.parametrize("spec", ["primes", "powers", "factorials", "finite:0,24,7"])
    @pytest.mark.parametrize("alpha", ["1/12", "1/2", "3/4"])
    def test_windows_match_a_double_loop(self, spec, alpha):
        # the four exact oracles at alpha in {1/12, 1/2, 3/4}, depth 8:
        # the windows from the classes against every a of H∖{h} (and H)
        # mod 8! up to T against every b, at horizons below a level
        # modulus, between two, and past 7!
        oracle = parse_oracle(spec)
        t = construct(oracle, Fraction(alpha), 8)
        for horizon in (1, 5, 100, 10**3, 10**4):
            b = oracle.enumerate(horizon)
            lo, hi, _ = verify._coverages(t, oracle, horizon)
            for window, full in zip((lo, hi), tower_bits(t)):
                assert np.array_equal(window, window_by_double_loop(full, b, horizon))

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
