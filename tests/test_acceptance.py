"""Acceptance suite.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and enforces the stated tolerance and runtime budget.  Criterion 4 is
split into a depth-8 run (< 2 min) and a depth-10 run (< 15 min).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from buckdens.construction import (
    check_claimA,
    construct,
    sum_bounds,
    tower_from_json,
    tower_to_json,
)
from buckdens.density import BUCK, axiom_suite
from buckdens.oracles import FiniteOracle, parse_oracle, smallness_profile
from buckdens.sets import ResidueSet, sumset_mod
from buckdens.verify import cross_density_check, sampling_slack, theorem_report

from naive_replay import naive_replay

ORACLE_SPECS = ("finite:0", "factorials", "powers", "primes")
ALPHAS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10))


def report(name, ok, elapsed, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {verdict} in {elapsed:.2f}s{suffix}")
    assert ok


class TestCriterion1Axioms:
    def test_axiom_suite_1000_samples(self):
        start = time.perf_counter()
        rep = axiom_suite(BUCK, samples=1000, seed=20240801)
        elapsed = time.perf_counter() - start
        ok = rep.all_passed and elapsed < 10.0
        report("criterion 1 (F1-F4, 1000 samples, <10s)", ok, elapsed,
               f"all_passed={rep.all_passed}")


class TestCriterion2Density:
    def test_exact_density_1000_random(self):
        rng = np.random.default_rng(7)
        start = time.perf_counter()
        ok = True
        for _ in range(1000):
            k = int(rng.integers(1, 10**4 + 1))
            size = int(rng.integers(0, min(k, 30) + 1))
            hs = np.unique(rng.integers(0, k, size=size))
            p = ResidueSet(k, hs)
            if p.density() != Fraction(len(hs), k):
                ok = False
                break
        elapsed = time.perf_counter() - start
        report("criterion 2 (density k*N+H exact, 1000 cases, <5s)",
               ok and elapsed < 5.0, elapsed)


class TestCriterion3Sumset:
    def test_sumset_vs_brute_force_200_random(self):
        rng = np.random.default_rng(11)
        start = time.perf_counter()
        ok = True
        for _ in range(200):
            k = int(rng.integers(1, 10**3 + 1))
            hs = rng.integers(0, k, size=int(rng.integers(0, 20)))
            cs = rng.integers(0, k, size=int(rng.integers(1, 20)))
            got = sumset_mod(ResidueSet(k, hs), ResidueSet(k, cs))
            want = {(int(a) + int(c)) % k for a in hs for c in cs}
            if set(got.residues()) != want:
                ok = False
                break
        elapsed = time.perf_counter() - start
        report("criterion 3 (sumset_mod vs brute force, 200 cases, <5s)",
               ok and elapsed < 5.0, elapsed)


class TestCriterion4ClaimA:
    def _run_grid(self, depth):
        ok = True
        for spec in ORACLE_SPECS:
            for alpha in ALPHAS:
                oracle = parse_oracle(spec)
                t = construct(oracle, alpha, depth)
                rep = check_claimA(t, oracle)
                if not rep.ok:
                    return False
                for c in rep.checks:
                    if not (c.lower <= alpha < c.upper):
                        return False
        return ok

    def test_depth_8_grid(self):
        start = time.perf_counter()
        ok = self._run_grid(8)
        elapsed = time.perf_counter() - start
        report("criterion 4 (Claim A, 16 combos, depth 8, <2min)",
               ok and elapsed < 120.0, elapsed)

    def test_depth_10_grid(self):
        start = time.perf_counter()
        ok = self._run_grid(10)
        elapsed = time.perf_counter() - start
        report("criterion 4 (Claim A, 16 combos, depth 10, <15min)",
               ok and elapsed < 900.0, elapsed)


class TestCriterion5ClaimCWidth:
    def test_factorials_depth_6(self):
        start = time.perf_counter()
        oracle = parse_oracle("factorials")
        alpha = Fraction(1, 3)
        t = construct(oracle, alpha, 6)
        sb = sum_bounds(t, oracle)
        width = sb.final.upper - sb.final.lower
        ok = width <= Fraction(1, 120) and sb.final.lower <= alpha <= sb.final.upper
        elapsed = time.perf_counter() - start
        report("criterion 5a (factorials d6 width <= 1/120)", ok, elapsed,
               f"width={width}")

    def test_primes_depth_8(self):
        start = time.perf_counter()
        oracle = parse_oracle("primes")
        t = construct(oracle, Fraction(1, 2), 8)
        sb = sum_bounds(t, oracle)
        width = float(sb.final.upper - sb.final.lower)
        ok = width <= 0.2290
        elapsed = time.perf_counter() - start
        report("criterion 5b (primes d8 width <= 0.2290)", ok, elapsed,
               f"width={width:.6f}")


class TestCriterion6KnownTrace:
    def test_b_zero_half_vs_naive_replay(self):
        start = time.perf_counter()
        oracle = FiniteOracle([0])
        t = construct(oracle, Fraction(1, 2), 8)
        replay = naive_replay([0], Fraction(1, 2), 8)
        ok = [lv.k_chosen for lv in t.levels[1:]] == [1] + [0] * 6
        for n in range(2, 9):
            lv, ref = t.levels[n - 1], replay[n - 1]
            ok &= lv.density_a == Fraction(1, 2) + Fraction(1, math.factorial(n))
            ok &= set(lv.H.residues()) == ref["H"]
            ok &= lv.h == ref["h"] and lv.k_chosen == ref["k"]
            ok &= lv.density_a == ref["densityA"]
        elapsed = time.perf_counter() - start
        report("criterion 6 (known trace vs naive replay)", bool(ok), elapsed)


class TestCriterion7TheoremDeskScale:
    def test_primes_half_depth8_T_1e7(self):
        start = time.perf_counter()
        oracle = parse_oracle("primes")
        horizon = 10**7
        t = construct(oracle, Fraction(1, 2), 8)
        rep = theorem_report(oracle, t.alpha, t.depth, horizon, tower=t)
        row = rep.rows[-1]
        band = 0.2287 + 2 / math.factorial(9) + sampling_slack(horizon)
        ok = (0.5 - band <= row.freq[0] and row.freq[1] <= 0.5 + band)
        elapsed = time.perf_counter() - start
        report("criterion 7 (primes a=1/2 d8 T=1e7, <5min)",
               ok and elapsed < 300.0, elapsed,
               f"freq=[{row.freq[0]:.6f},{row.freq[1]:.6f}] band={band:.4f}")


class TestCriterion8TightQuantitative:
    def test_factorials_third_depth6_T_1e6(self):
        start = time.perf_counter()
        oracle = parse_oracle("factorials")
        horizon = 10**6
        t = construct(oracle, Fraction(1, 3), 6)
        rep = theorem_report(oracle, t.alpha, t.depth, horizon, tower=t)
        row = rep.rows[-1]
        third = 1 / 3
        ok = (third - 0.012 <= row.freq[0] and row.freq[1] <= third + 0.012)
        elapsed = time.perf_counter() - start
        report("criterion 8 (factorials a=1/3 d6 T=1e6 in 1/3+-0.012, <1min)",
               ok and elapsed < 60.0, elapsed,
               f"freq=[{row.freq[0]:.6f},{row.freq[1]:.6f}]")


class TestCriterion9NonSmallWitness:
    def test_factorial_plus_n_profile(self):
        start = time.perf_counter()
        vals = [math.factorial(n) + n for n in range(1, 41)]
        prof = smallness_profile(FiniteOracle(vals), 4)
        n, count, eps = prof.rows[-1]
        ok = (n == 4 and count == 24 and eps == 1
              and prof.verdict == "not small")
        elapsed = time.perf_counter() - start
        report("criterion 9 ({n!+n} eps=1 at 4!)", ok, elapsed)


class TestCriterion10CrossDensity:
    def test_three_proxies_factorials_third(self):
        start = time.perf_counter()
        oracle = parse_oracle("factorials")
        t = construct(oracle, Fraction(1, 3), 6)
        rep = cross_density_check(t, oracle, 10**6)
        vals = [*rep.asymptotic, rep.banach, rep.logarithmic]
        ok = rep.passed and all(abs(v - 1 / 3) <= 0.03 for v in vals)
        elapsed = time.perf_counter() - start
        report("criterion 10 (3 proxies in 1/3+-0.03)", ok, elapsed,
               "asym=[{:.4f},{:.4f}] banach={:.4f} log={:.4f}".format(*vals))


class TestCriterion11Serialization:
    def test_round_trip_and_recertification(self):
        start = time.perf_counter()
        ok = True
        for spec, alpha in (("primes", Fraction(1, 2)),
                            ("factorials", Fraction(1, 3))):
            oracle = parse_oracle(spec)
            t = construct(oracle, alpha, 6)
            config = {"b": spec, "alpha": str(alpha), "depth": 6}
            text = tower_to_json(t, config)
            loaded, cfg = tower_from_json(text)
            ok &= tower_to_json(loaded, cfg) == text
            ra = check_claimA(t, oracle)
            rb = check_claimA(loaded, parse_oracle(spec))
            ok &= ra.ok and rb.ok
            ok &= [(c.n, c.lower, c.upper) for c in ra.checks] == \
                [(c.n, c.lower, c.upper) for c in rb.checks]
        elapsed = time.perf_counter() - start
        report("criterion 11 (byte-exact round trip + identical certificates)",
               bool(ok), elapsed)
