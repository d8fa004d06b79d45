import functools
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckdens import construction, sets
from buckdens.cli import main
from buckdens.construction import (
    CertificateError,
    Tower,
    a_bounds,
    check_claimA,
    construct,
    count_A,
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
from buckdens.sets import ResidueSet, ResourceLimitError, rebase, sumset_mod
from buckdens.verify import a_window

from naive_replay import materialize, naive_replay

HALF = Fraction(1, 2)


@functools.cache
def _canonical_text(spec: str, alpha: Fraction, depth: int) -> str:
    config = {"b": spec, "alpha": str(alpha), "depth": depth}
    return tower_to_json(construct(parse_oracle(spec), alpha, depth), config)


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
        # B = {0} lists its cover as sparse at every modulus up to 8!; the 12
        # Fibonacci numbers below 145 outnumber 7!/512, so U at 7! comes
        # from the dense path of Rotations.gain
        fibonacci = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
        for b_values, alpha, depth in (([0], HALF, 8), (fibonacci, HALF, 7),
                                       (fibonacci, Fraction(3, 4), 7)):
            t = construct(FiniteOracle(b_values), alpha, depth)
            replay = naive_replay(b_values, alpha, depth)
            assert len(replay) == t.depth
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
        definite, exceptional = a_window(t, 10)
        assert definite.all() and not exceptional.any()
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
        base = rebase(h_prime, big)
        densities = []
        for k in range(prev.n + 1):
            bits = base.window(big)
            for j in range(k + 1):
                bits[(prev.h + j * prev.modulus) % big] = 1
            cand = ResidueSet.from_bits(bits)
            densities.append(sumset_mod(cand, cover).density())
        assert densities == sorted(densities)

    def test_construct_never_calls_the_convolution(self, monkeypatch):
        # the builder tiles the carried lower sumset and never convolves;
        # the covers intersect their CRT components through ``rebase``, so
        # they are built before the patch
        def refuse(*args, **kwargs):
            raise AssertionError("the builder must not convolve or rebase")

        for spec, alpha in (("primes", HALF), ("powers", Fraction(9, 10)),
                            ("factorials", Fraction(1, 3)), ("finite:0,24,7", HALF)):
            oracle = parse_oracle(spec)
            for n in range(1, 8):
                oracle.cover_cached(math.factorial(n))
            with monkeypatch.context() as patched:
                for module in (construction, sets):
                    for name in ("sumset_mod", "rebase"):
                        if hasattr(module, name):
                            patched.setattr(module, name, refuse)
                t = construct(oracle, alpha, 7)
            assert check_claimA(t, oracle).ok

    def test_step_carries_the_lower_sumset(self):
        def lower_sumset(lv):  # (H minus h) + cover(n!) mod n!, by convolution
            return sumset_mod(lv.H.discard(lv.h), oracle.cover_cached(lv.modulus))

        oracle = PrimesOracle()
        t = construct(oracle, Fraction(1, 3), 5)
        prev = t.levels[-2]
        with pytest.raises(ValueError, match="lower sumset 1 words, expected 120 residues"):
            step(prev, lower_sumset(prev).words(), oracle.cover_cached(120), Fraction(1, 3))
        lower = rebase(lower_sumset(prev), 120).words()
        lv = step(prev, lower, oracle.cover_cached(120), Fraction(1, 3))
        assert lv == t.top
        assert ResidueSet.from_words(120, lower) == lower_sumset(lv)
        assert lv.sum_lower == ResidueSet.from_words(120, lower).density()

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

    def test_tampered_tower_is_caught(self, tmp_path, capsys):
        # level 3 with 2 dropped is not the H_3 that k_2 and k_3 build: the
        # report fails at level 3, and checks every level
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
        assert report.first_violation() == 3
        assert [c.n for c in report.checks] == [1, 2, 3, 4]
        path = tmp_path / "bad.json"
        path.write_text(tower_to_json(bad))
        code = main(["verify", "--tower", str(path), "--b", "finite:0",
                     "--horizon", "1000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "certificate error: certificate FAILED at level 3\n"

    @pytest.mark.parametrize("alpha", [Fraction(0), HALF, Fraction(1)])
    def test_a_tower_with_no_levels_certifies_alpha_one_only(self, alpha):
        t = Tower(alpha=alpha, oracle_spec="primes", exact=True)
        report = check_claimA(t, PrimesOracle())
        assert report.checks == []
        assert report.ok == (alpha == 1)

    def test_a_random_top_level_fails_the_check(self, tmp_path, capsys):
        # a random level 8, with no periodic layer, is not the H_8 of the
        # k's: the check fails at level 8, and verify exits 2
        oracle = PerfectPowersOracle()
        t = construct(oracle, HALF, 8)
        top = t.top
        bits = (np.random.default_rng(8).random(top.modulus) < 0.3).astype(np.uint8)
        bits[top.h] = 1
        bad = Tower(alpha=t.alpha, oracle_spec=t.oracle_spec, exact=t.exact,
                    levels=t.levels[:-1] + [replace(top, H=ResidueSet.from_bits(bits))])
        report = check_claimA(bad, oracle)
        assert report.first_violation() == 8
        assert [c.n for c in report.checks] == list(range(1, 9))
        path = tmp_path / "bad.json"
        path.write_text(tower_to_json(bad))
        code = main(["verify", "--tower", str(path), "--b", "powers",
                     "--horizon", "1000"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "FAILED at level 8" in err

    @staticmethod
    def with_top_lifts(t, oracle, lifts, alpha):
        """``t`` with its top H holding the lifts j in ``lifts`` of h_{N-1}
        in place of lifts 0..k_N, its densityA, L and U recomputed to
        match, and target ``alpha``."""
        prev, top = t.levels[-2], t.top
        H = ResidueSet(top.modulus, [r for r in top.H.residues()
                                     if (r - prev.h) % prev.modulus]
                       + [prev.h + j * prev.modulus for j in lifts])
        cover = oracle.cover_cached(top.modulus)
        top = replace(top, H=H, density_a=H.density(),
                      sum_lower=sumset_mod(H.discard(top.h), cover).density(),
                      sum_upper=sumset_mod(H, cover).density())
        return replace(t, alpha=alpha, levels=t.levels[:-1] + [top])

    @pytest.mark.parametrize("spec, alpha, depth, lifts, target", [
        # H_4 holds lifts 0 and 2 of h_3, not lift 1, with k_4 = 2
        ("primes", HALF, 4, [0, 2], Fraction(5, 12)),
        # H_4 holds lifts 0, 1 and 2 of h_3, past k_4 = 1
        ("powers", Fraction(3, 4), 4, [0, 1, 2], Fraction(3, 4)),
    ], ids=["non-prefix", "past-k"])
    def test_lifts_other_than_those_up_to_k_are_caught(self, tmp_path, capsys, spec, alpha,
                                                        depth, lifts, target):
        # every stored number of these hand-made towers matches their H,
        # and each level brackets alpha, but the top H is not the one that
        # the k's build: the check fails there
        oracle = parse_oracle(spec)
        t = construct(oracle, alpha, depth)
        bad = self.with_top_lifts(t, oracle, lifts, target)
        assert bad.top.sum_lower <= target < bad.top.sum_upper
        report = check_claimA(bad, oracle)
        assert report.first_violation() == depth
        assert all(c.bracket_ok and c.stored_ok for c in report.checks[:-1])
        path = tmp_path / "bad.json"
        path.write_text(tower_to_json(bad))
        code = main(["verify", "--tower", str(path), "--b", spec, "--horizon", "1000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"certificate error: certificate FAILED at level {depth}\n"

    @pytest.mark.parametrize("level", range(2, 9))
    def test_one_flipped_bit_fails_its_own_level(self, tmp_path, capsys, level):
        # a bit of H_n off the lifts of h_{n-1} flipped (at level 2, every
        # residue is a lift, and residue 0 is flipped): the check fails at
        # level n, whichever way the lower levels nest
        oracle = PrimesOracle()
        t = construct(oracle, HALF, 8)
        prev, lv = t.levels[level - 2], t.levels[level - 1]
        r = next((r for r in range(lv.modulus) if (r - prev.h) % prev.modulus), 0)
        flipped = lv.H.words().copy()
        flipped[r >> 6] ^= np.uint64(1) << np.uint64(r & 63)
        levels = list(t.levels)
        levels[level - 1] = replace(lv, H=ResidueSet.from_words(lv.modulus, flipped))
        bad = replace(t, levels=levels)
        assert check_claimA(bad, oracle).first_violation() == level
        path = tmp_path / "bad.json"
        path.write_text(tower_to_json(bad))
        code = main(["verify", "--tower", str(path), "--b", "primes", "--horizon", "1000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"certificate error: certificate FAILED at level {level}\n"

    @pytest.mark.parametrize("spec", ["primes", "powers", "factorials", "finite:0,24,7"])
    def test_flipped_bits_fail_the_check(self, spec):
        # a valid depth-8 tower, and the same tower with 1-3 bits flipped
        # across its levels: check_claimA fails every corrupted tower
        # instead of raising
        oracle = parse_oracle(spec)
        t = construct(oracle, HALF, 8)
        rng = np.random.default_rng(len(spec))
        towers = [t]
        for flips in (1, 1, 2, 2, 3, 3):
            levels = list(t.levels)
            for i in rng.choice(len(levels), size=flips):
                lv = levels[i]
                r = int(rng.integers(lv.modulus))
                flipped = lv.H.words().copy()
                flipped[r >> 6] ^= np.uint64(1) << np.uint64(r & 63)
                levels[i] = replace(lv, H=ResidueSet.from_words(lv.modulus, flipped))
            towers.append(replace(t, levels=levels))
        reports = [check_claimA(tower, oracle) for tower in towers]
        assert reports[0].ok
        assert not any(report.ok for report in reports[1:])

    def test_k_chosen_off_the_marked_class_is_caught(self, tmp_path, capsys):
        # level 5 of this tower stores k = 0 with h_5 = h_4; k = 3 would put
        # h_5 at h_4 + 3·4!, so the stored k no longer matches h
        oracle = PrimesOracle()
        doc = json.loads(tower_to_json(construct(oracle, HALF, 6)))
        assert doc["levels"][4]["k_chosen"] == 0
        doc["levels"][4]["k_chosen"] = 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        bad, _ = tower_from_json(path.read_text())
        assert check_claimA(bad, oracle).first_violation() == 5
        code = main(["verify", "--tower", str(path), "--b", "primes",
                     "--horizon", "1000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "FAILED at level 5" in captured.err

    def test_depth_ten_check_takes_no_transform(self):
        # the classes are summed by integer rotation (no module names an
        # FFT: test_ownership.test_no_module_names_fft), and give the
        # stored certificates at every level
        for oracle in (PrimesOracle(), PerfectPowersOracle()):
            t = construct(oracle, HALF, 10)
            report = check_claimA(t, oracle)
            assert report.ok
            assert [(c.lower, c.upper) for c in report.checks] == \
                [(lv.sum_lower, lv.sum_upper) for lv in t.levels]

    @pytest.mark.parametrize("spec, depth", [
        ("factorials", 9), ("finite:0,24,7", 9), ("primes", 8), ("powers", 8)])
    def test_construct_and_check_count_no_cover(self, spec, depth):
        # the builder and the checker read each cover's sparse/dense rule
        # off a listing that stops at its limit, and never count a cover
        class Uncounted(ResidueSet):
            __slots__ = ()

            def __len__(self):
                raise AssertionError("a cover was counted")

        oracle = parse_oracle(spec)
        honest = oracle.cover
        oracle.cover = lambda m: Uncounted.from_words(m, honest(m).words())
        t = construct(oracle, HALF, depth)
        assert check_claimA(t, oracle).ok

    @pytest.mark.parametrize("spec", ["factorials", "finite:0,24,7"])
    @pytest.mark.parametrize("alpha", [HALF, Fraction(6, 11)])
    def test_sparse_covers_rotate_nothing_at_the_top(self, monkeypatch, spec, alpha):
        # a cover of at most 9 residues of 9! is scattered and gathered:
        # neither step nor check_claimA rotates the 9!/8 bytes of a whole
        # level's words
        lengths = []
        combine = sets.combine_rotated

        def recording(*args):
            lengths.append(args[-2].nbytes)
            combine(*args)

        oracle = parse_oracle(spec)
        monkeypatch.setattr(sets, "combine_rotated", recording)
        t = construct(oracle, alpha, 9)
        assert check_claimA(t, oracle).ok
        assert max(lengths, default=0) < math.factorial(9) // 8

    @pytest.mark.parametrize("mutant", ["_rolled", "gain"])
    @pytest.mark.parametrize("alpha", [HALF, Fraction(3, 4)], ids=["half", "three-quarters"])
    def test_a_rotation_bug_the_builder_makes_is_caught(self, monkeypatch, mutant, alpha):
        # a broken Rotations, left in place for construct and for the
        # check, builds a depth-8 powers tower with wrong certificates from
        # level 8 on; check_claimA shares no rotation with the builder and
        # fails it there
        real_gain = sets.Rotations.gain

        def rolled_without_carry(self, shift):
            # Rotations._rolled without the carry of the last word into the first
            t = self.table
            w, b = divmod(shift, 64)
            if not b:
                return t, w
            carried = t << b
            carried[1:] |= t[:-1] >> (64 - b)
            return carried, w

        def gain_without_wrap(self, base, shift):
            # Rotations.gain without the wrapped piece of a dense count
            if self.entries is not None:
                return real_gain(self, base, shift)
            t, w = self._rolled(shift)
            return int(np.bitwise_count(t[:t.shape[0] - w] & ~base[w:]).sum())

        broken = {"_rolled": rolled_without_carry, "gain": gain_without_wrap}[mutant]
        oracle = PerfectPowersOracle()
        honest = construct(oracle, alpha, 8)
        monkeypatch.setattr(sets.Rotations, mutant, broken)
        t = construct(oracle, alpha, 8)
        assert t.top.sum_upper != honest.top.sum_upper
        report = check_claimA(t, oracle)
        assert report.first_violation() == 8

    @pytest.mark.parametrize("spec", ["primes", "powers"])
    @pytest.mark.parametrize("alpha", [HALF, Fraction(3, 4)], ids=["half", "three-quarters"])
    def test_a_rotation_bug_the_checker_makes_leaves_the_builder_alone(
            self, monkeypatch, spec, alpha):
        # sets.rotated without the wrap of the bits shifted past k, left in
        # place for construct and for the check: the builder never reaches
        # it and builds the same depth-10 tower, which the check then fails
        def rotated_without_wrap(p, shifts):
            k = p.modulus
            x, out = int.from_bytes(p.words().tobytes(), "little"), 0
            for s in shifts:
                out |= (x << s) & ((1 << k) - 1)
            return ResidueSet.from_words(k, np.frombuffer(
                out.to_bytes(8 * sets.word_count(k), "little"), dtype="<u8"))

        honest = tower_to_json(construct(parse_oracle(spec), alpha, 10))
        monkeypatch.setattr(sets, "rotated", rotated_without_wrap)
        monkeypatch.setattr(construction, "rotated", rotated_without_wrap)
        oracle = parse_oracle(spec)
        t = construct(oracle, alpha, 10)
        assert tower_to_json(t) == honest
        assert not check_claimA(t, oracle).ok

    def test_an_oracle_breaking_the_projection_is_caught(self):
        # cover(7!) gains 0, which is not in cover(8!) mod 7!: the builder's
        # tiling assumes the projection, and the check neither assumes it
        # nor asks the oracle for a cover at a modulus it folds down to
        class Liar(PrimesOracle):
            def cover(self, m):
                honest = super().cover(m)
                return ResidueSet(m, honest.residues() + [0]) if m == 5040 else honest

        liar = Liar()
        assert 0 not in ResidueSet.from_bits(
            liar.cover(40320).window(40320).reshape(8, 5040).max(axis=0))
        report = check_claimA(construct(liar, HALF, 8), liar)
        assert not report.ok
        assert report.first_violation() == 7

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


class TestIntervalProperty:
    # L_n is the U of candidate k_n − 1, so the bracket L_n <= alpha < U_n
    # reads "k_n − 1 fails and k_n passes": a k sequence is the greedy one
    # for every alpha in [L_N, U_N), and for no other
    @pytest.mark.parametrize("spec", ["primes", "powers", "factorials", "finite:0,24,7"])
    @pytest.mark.parametrize("alpha", [Fraction(1, 3), HALF, Fraction(3, 4)],
                             ids=["third", "half", "three-quarters"])
    def test_a_k_sequence_certifies_its_interval(self, spec, alpha):
        oracle = parse_oracle(spec)
        t = construct(oracle, alpha, 9)

        def ks(target):
            return [lv.k_chosen for lv in construct(oracle, target, 9).levels]

        own, top = [lv.k_chosen for lv in t.levels], t.top
        assert ks(top.sum_lower) == ks(top.sum_upper - Fraction(1, 10**30)) == own
        assert ks(top.sum_upper) != own


class TestBounds:
    def test_a_bounds_b_zero(self):
        t = construct(FiniteOracle([0]), HALF, 6)
        iv = a_bounds(t)
        assert iv.upper == HALF + Fraction(1, 720)
        assert iv.lower == HALF
        assert iv.upper - iv.lower <= Fraction(1, 720)

    def test_a_bounds_width_always_small(self):
        for spec in ("primes", "factorials"):
            oracle = parse_oracle(spec)
            t = construct(oracle, Fraction(1, 3), 6)
            iv = a_bounds(t)
            assert iv.upper - iv.lower <= Fraction(1, 720)

    def test_sum_bounds_straddle_alpha_with_eps_width(self):
        oracle = FactorialsOracle()
        alpha = Fraction(1, 3)
        t = construct(oracle, alpha, 6)
        sb = sum_bounds(t, oracle)
        assert sb.final.lower <= alpha < sb.final.upper
        assert sb.final.upper - sb.final.lower <= Fraction(1, 120)
        for n, lower, upper, eps in sb.per_level:
            assert upper - lower <= eps

    def test_sum_bounds_primes_width(self):
        oracle = PrimesOracle()
        t = construct(oracle, HALF, 8)
        sb = sum_bounds(t, oracle)
        width = sb.final.upper - sb.final.lower
        assert width <= Fraction(9220, math.factorial(8))
        assert float(width) <= 0.2290

    def test_level_bounds_collapse_as_depth_grows(self):
        oracle = FiniteOracle([0])
        t = construct(oracle, HALF, 8)
        sb = sum_bounds(t, oracle)
        for n, lower, upper, _ in sb.per_level[1:]:
            assert upper - lower <= Fraction(1, math.factorial(n))


class TestMembership:
    # membership of A as verify.a_window reads it off a tower: definite,
    # exceptional (the marked class h_N mod N!, undecided at this depth)
    # or out
    def test_b_zero_trace(self):
        t = construct(FiniteOracle([0]), HALF, 4)
        definite, exceptional = a_window(t, t.top.modulus)
        # 3 mod 2 = 1 in H_2 but 3 mod 6 = 3 not in H_3
        assert not definite[3] and not exceptional[3]
        assert definite[0] and not exceptional[0]  # h_4 = 1, so 0 is settled
        assert exceptional[t.top.h] and not definite[t.top.h]

    def test_out_is_definitive_per_level(self):
        oracle = PrimesOracle()
        t = construct(oracle, Fraction(1, 3), 5)
        definite, exceptional = a_window(t, 199)
        for x in range(200):
            in_all = all((x % lv.modulus) in lv.H for lv in t.levels)
            assert bool(definite[x] | exceptional[x]) == in_all


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
        in_all = np.ones(horizon + 1, dtype=bool)
        for lv in t.levels:
            in_all &= np.isin(np.arange(horizon + 1) % lv.modulus, lv.H.residues())
        marked = np.arange(horizon + 1) % t.top.modulus == t.top.h
        definite = int(np.count_nonzero(in_all[1:] & ~marked[1:]))
        possible = int(np.count_nonzero(in_all[1:]))
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

    def test_only_lower_case_hex_without_spaces_is_read(self):
        # bytes.fromhex takes these too, but tower_to_json would write the
        # parsed tower back as different bytes
        text = tower_to_json(construct(FiniteOracle([0]), Fraction(9, 10), 6))
        assert tower_to_json(tower_from_json(text)[0]) == text
        data = json.loads(text)["levels"][5]["H"]["data"]
        assert set("abcdef") & set(data)
        for bad in (data.upper(), data[:2] + " " + data[2:], data[:-2] + "\n" + data[-2:],
                    " " + data[:-1], data + " "):
            doc = json.loads(text)
            doc["levels"][5]["H"]["data"] = bad
            canonical = json.dumps(doc, indent=2) + "\n"
            # json escapes the newline, and a slot holding a backslash is
            # read by json.loads; every other case reaches the range decoder
            assert (construction._canonical_slots(canonical) is None) == ("\n" in bad)
            for bad_text in (json.dumps(doc), canonical):
                with pytest.raises(ValueError, match="180 lower-case hex digits"):
                    tower_from_json(bad_text)

    def test_level_hex_is_the_set_file_bitmap(self):
        tower = construct(FiniteOracle([0]), Fraction(9, 10), 7)
        assert len(tower.top.H) > 1024   # so dumps_periodic writes a bitmap
        data = json.loads(tower_to_json(tower))["levels"][-1]["H"]["data"]
        assert sets.dumps_periodic(tower.top.H).splitlines()[1] == "bitmap " + data

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            tower_from_json('{"schema": "nope", "levels": []}')

    def test_writing_holds_the_document_and_at_most_two_chunks(self):
        # level 11's hex spans many chunks; joining the levels' hex would
        # hold it all beside the finished document
        t = construct(FactorialsOracle(), Fraction(1, 3), 11, allow_deep=True)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            text = tower_to_json(t, {"b": "factorials"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 8 * sets._HEX_CHUNK
        assert peak - live <= len(text) + 2 * sets._HEX_CHUNK

    def test_reading_hands_json_loads_no_hex_and_holds_one_chunk(self, monkeypatch):
        # the canonical layout is read from a skeleton with its slots
        # emptied, each level decoded from its range of the document
        t = construct(FactorialsOracle(), Fraction(1, 3), 11, allow_deep=True)
        text = tower_to_json(t, {"b": "factorials"})
        parsed = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda s: parsed.append(len(s)) or loads(s))
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            loaded, cfg = tower_from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == t and cfg == {"b": "factorials"}
        assert len(text) > 16 * sets._HEX_CHUNK
        assert sum(parsed) < 64 * 1024
        words = sum(lv.H.words().nbytes for lv in loaded.levels)
        assert peak - live <= words + 2 * sets._HEX_CHUNK

    EXACT = [("primes", HALF), ("factorials", Fraction(1, 3)),
             ("powers", Fraction(9, 10)), ("finite:0,24,7", HALF)]
    # characters that end a slot, escape, are or are not hex, break the
    # JSON syntax or its whitespace, or are not ASCII
    EDIT_CHARS = ['"', "\\", "0", "f", "A", " ", "\n", "\x01", "{", "}", "[", "]", ",",
                  ":", "-", "1", "e", ".", "é"]

    @staticmethod
    def assert_reads_as_json_loads_reads(text):
        """``tower_from_json(text)`` gives the tower and config it gives for
        the minified document, which ``json.loads`` reads whole, or both
        raise ValueError; where ``text`` is no JSON, it raises ValueError."""
        try:
            minified = json.dumps(json.loads(text), separators=(",", ":"))
        except ValueError:
            with pytest.raises(ValueError):
                tower_from_json(text)
            return
        assert construction._canonical_slots(minified) is None
        try:
            expected = tower_from_json(minified)
        except ValueError:
            with pytest.raises(ValueError):
                tower_from_json(text)
            return
        assert tower_from_json(text) == expected

    @settings(max_examples=300)
    @given(st.sampled_from(EXACT), st.integers(1, 8), st.data())
    def test_a_one_character_edit_reads_as_json_loads_reads_it(self, oracle, depth, data):
        text = _canonical_text(*oracle, depth)
        at = data.draw(st.integers(0, len(text) - 1))
        kind = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        char = "" if kind == "delete" else data.draw(st.sampled_from(self.EDIT_CHARS))
        edited = text[:at] + char + text[at + (kind != "insert"):]
        self.assert_reads_as_json_loads_reads(edited)

    def test_other_layouts_of_a_canonical_dump_read_as_json_loads_reads_them(self):
        text = _canonical_text("primes", HALF, 4)
        doc = json.loads(text)
        levels = doc["levels"]
        head = {k: v for k, v in doc.items() if k not in ("config", "levels")}
        trivial = tower_to_json(construct(PrimesOracle(), Fraction(1), 3), {"data": ""})
        moved = json.loads(text)   # level 2's hex under another key, its H data a number
        moved["levels"][1]["note"] = {"data": moved["levels"][1]["H"]["data"]}
        moved["levels"][1]["H"]["data"] = 5
        cases = {
            # (text, read from its skeleton)
            "levels first": ({"levels": levels, **head, "config": doc["config"]}, True),
            "a config after levels holding the slot pair":
                ({**head, "levels": levels, "config": {"data": ""}}, False),
            "a config before levels holding the slot pair":
                ({**head, "config": {"data": "", "levels": [{"data": ""}]}, "levels": levels},
                 True),
            "an empty levels key before the levels":
                (text.replace('\n  "levels": [', '\n  "levels": [],\n  "levels": [', 1), False),
            "an empty levels key after the levels":
                (text[:-len("\n}\n")] + ',\n  "levels": []\n}\n', False),
            "the trivial tower": (trivial, True),
            "a level's hex outside its H": (moved, False),
        }
        for name, (case, fast) in cases.items():
            case_text = case if isinstance(case, str) else json.dumps(case, indent=2) + "\n"
            assert (construction._canonical_slots(case_text) is not None) == fast, name
            self.assert_reads_as_json_loads_reads(case_text)
        assert tower_to_json(*tower_from_json(trivial)) == trivial

    # caller strings holding the spliced slot, the levels line, quotes, NUL
    # and non-ASCII text, as keys and as values; the config also holds the
    # slot itself as a key-value pair
    AWKWARD = ['"data": ""', '\n  "levels": [', '"H": {"data": ""}', '\x00"\\',
               "α ≤ 1/2 — naïve 😀"]

    @staticmethod
    def reference_json(t, config):
        """The document with its hex in place, dumped in one json.dumps."""
        doc = {"schema": construction.SCHEMA, "alpha": str(t.alpha),
               "oracle": t.oracle_spec, "exact": t.exact, "trivial": t.trivial,
               "config": config,
               "levels": [{"n": lv.n, "k_chosen": lv.k_chosen, "h": lv.h,
                           "H": {"encoding": "hex-bitmap-le",
                                 "data": np.packbits(lv.H.window(lv.modulus), bitorder="little")
                                 .tobytes().hex()},
                           "densityA": str(lv.density_a), "L": str(lv.sum_lower),
                           "U": str(lv.sum_upper)} for lv in t.levels]}
        return json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("spec,alpha,depth", [
        *[("primes", HALF, d) for d in range(1, 9)],
        ("finite:0", Fraction(1), 4),
        ("factorials", Fraction(2, 3), 11),
    ])
    def test_spliced_hex_matches_one_dump(self, spec, alpha, depth):
        oracle = parse_oracle(spec)
        t = construct(oracle, alpha, depth, allow_deep=depth == 11)
        for oracle_spec, config in ((spec, None),
                                    (" ".join(self.AWKWARD),
                                     {"data": "", "levels": [{"data": ""}],
                                      **{s: [s, {s: s}] for s in self.AWKWARD}})):
            t = replace(t, oracle_spec=oracle_spec)
            text = tower_to_json(t, config)
            assert text == self.reference_json(t, config)
            loaded, cfg = tower_from_json(text)
            assert cfg == config and loaded.oracle_spec == oracle_spec
            assert tower_to_json(loaded, cfg) == text

    def test_any_layout_reads_back_to_the_canonical_file(self):
        # tower_from_json reads values, not bytes: another layout of the same
        # document parses to the same Tower, which tower_to_json writes in
        # the one canonical layout
        t = construct(PrimesOracle(), HALF, 4)
        config = {"b": "primes", "alpha": "1/2", "depth": 4}
        text = tower_to_json(t, config)
        minified = json.dumps(json.loads(text), separators=(",", ":"))
        assert minified != text
        loaded, cfg = tower_from_json(minified)
        assert loaded == t and cfg == config
        assert tower_to_json(loaded, cfg) == text

    def test_a_canonical_layout_can_still_write_back_other_bytes(self):
        # an unread key is dropped; an oracle that is not a string (a
        # number, a list, an object or null) is refused
        t = construct(PrimesOracle(), HALF, 4)
        text = tower_to_json(t)
        extra = json.loads(text)
        extra["levels"][1]["note"] = "unread"
        extra_text = json.dumps(extra, indent=2) + "\n"
        loaded, cfg = tower_from_json(extra_text)
        assert loaded == t and tower_to_json(loaded, cfg) == text != extra_text
        for value in ("1e2", "[1, 2]", '{"a": null}', "null"):
            bad_text = text.replace('"oracle": "primes"', f'"oracle": {value}')
            with pytest.raises(ValueError, match="'oracle' must be a string"):
                tower_from_json(bad_text)

class TestNesting:
    @pytest.mark.parametrize("spec", ["finite:0", "primes", "powers"])
    def test_claim_inclusions_directly(self, spec):
        oracle = parse_oracle(spec)
        t = construct(oracle, Fraction(1, 3), 6)
        for prev, cur in zip(t.levels, t.levels[1:]):
            h_prime = prev.H.discard(prev.h)
            lo = rebase(h_prime, cur.modulus)
            hi = rebase(prev.H, cur.modulus)
            assert not (lo.words() & ~cur.H.words()).any()
            assert not (cur.H.words() & ~hi.words()).any()
