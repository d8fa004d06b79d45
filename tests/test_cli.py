import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import buckdens
from buckdens.cli import main, parse_rational
from buckdens.construction import Tower, construct, tower_from_json, tower_to_json
from buckdens.oracles import FiniteOracle, primes_cover
from buckdens.sets import ResidueSet, dumps_periodic

SRC = str(Path(buckdens.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """The CLI in a fresh interpreter, for failures that must not allocate."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "buckdens.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


class TestStartup:
    def test_import_leaves_sympy_out(self, monkeypatch):
        # -X importtime lists every module a fresh interpreter imports
        monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
        proc = run_process("cover", "--b", "finite:0", "--mod", "6")
        assert proc.returncode == 0
        imported = [line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "buckdens.oracles" in imported
        assert not [name for name in imported if name.split(".")[0] == "sympy"]


class TestParseRational:
    def test_fraction(self):
        assert parse_rational("9/10") == Fraction(9, 10)

    def test_decimal(self):
        assert parse_rational("0.5") == Fraction(1, 2)

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")


class TestConstruct:
    def test_writes_tower_json(self, tmp_path, capsys):
        out = tmp_path / "tower.json"
        code, _, err = run(capsys, "construct", "--b", "finite:0",
                           "--alpha", "1/2", "--depth", "4",
                           "--out", str(out))
        assert code == 0
        assert "L=1/2" in err
        doc = json.loads(out.read_text())
        assert doc["schema"] == "buckdens-tower-v1"
        assert doc["config"]["alpha"] == "1/2"
        tower, _ = tower_from_json(out.read_text())
        assert [lv.k_chosen for lv in tower.levels] == [None, 1, 0, 0]

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "construct", "--b", "primes",
                             "--alpha", "1/3", "--depth", "6",
                             "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_sidecar(self, tmp_path, capsys):
        out, csv_path = tmp_path / "t.json", tmp_path / "levels.csv"
        code, _, _ = run(capsys, "construct", "--b", "factorials",
                         "--alpha", "1/3", "--depth", "5",
                         "--out", str(out), "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("n,size_H,h,k_chosen")
        assert len(lines) == 6

    def test_alpha_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "construct", "--b", "finite:0",
                           "--alpha", "3/2", "--depth", "3")
        assert code == 1
        assert "error" in err

    def test_bad_oracle_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "construct", "--b", "lucas",
                         "--alpha", "1/2", "--depth", "3")
        assert code == 1

    def test_missing_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--b", "primes"])
        assert exc.value.code == 1

    def test_depth_cap_is_resource_error(self, capsys):
        code, _, err = run(capsys, "construct", "--b", "finite:0",
                           "--alpha", "1/2", "--depth", "12", "--allow-deep")
        assert code == 3
        assert "resource" in err

    def test_depth_cap_names_the_flag(self, capsys):
        code, out, err = run(capsys, "construct", "--b", "finite:0",
                             "--alpha", "1/2", "--depth", "11")
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "--allow-deep" in err

    def test_alpha_one_trivial(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, _, err = run(capsys, "construct", "--b", "primes",
                           "--alpha", "1", "--depth", "3", "--out", str(out))
        assert code == 0
        assert "trivial" in err
        tower, _ = tower_from_json(out.read_text())
        assert tower.trivial

    def test_tower_with_no_levels_certifies_alpha_one_only(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert run(capsys, "construct", "--b", "primes", "--alpha", "1",
                   "--depth", "3", "--out", str(path))[0] == 0
        doc = json.loads(path.read_text())
        doc["alpha"] = "1/2"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--tower", str(path), "--b", "primes",
                             "--horizon", "1000")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "alpha = 1/2" in err and "None" not in err

    def test_report_of_a_tower_with_no_levels_has_depth_zero(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert run(capsys, "construct", "--b", "primes", "--alpha", "1",
                   "--depth", "3", "--out", str(path))[0] == 0
        code, out, _ = run(capsys, "verify", "--tower", str(path), "--b", "primes",
                           "--horizon", "1000")
        assert code == 0
        doc = json.loads(out)
        assert doc["depth"] == 0 and doc["levels"] == []


class TestCover:
    def test_factorials_720(self, capsys):
        code, out, _ = run(capsys, "cover", "--b", "factorials", "--mod", "720")
        assert code == 0
        assert out.splitlines()[0] == "6"

    def test_finite_zero_mod_5(self, capsys):
        code, out, _ = run(capsys, "cover", "--b", "finite:0", "--mod", "5",
                           "--dump")
        assert code == 0
        assert out.splitlines() == ["1", "0"]

    def test_dump_spanning_blocks(self, capsys):
        # 2**17 residues make two blocks of the streamed dump
        code, out, _ = run(capsys, "cover", "--b", "primes", "--mod", str(2**17), "--dump")
        assert code == 0
        residues = primes_cover(2**17).residues()
        assert out == f"{len(residues)}\n" + ",".join(map(str, residues)) + "\n"

    def test_dump_is_streamed(self, tmp_path):
        # a list and a string of all 2**21 residues would peak near 211 MiB
        m = 2**22
        with open(tmp_path / "out.txt", "w") as fh, contextlib.redirect_stdout(fh):
            tracemalloc.start()
            try:
                assert main(["cover", "--b", "primes", "--mod", str(m), "--dump"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 4 * m
        residues = primes_cover(m).residues()
        assert (tmp_path / "out.txt").read_text() == \
            f"{len(residues)}\n" + ",".join(map(str, residues)) + "\n"

    def test_primes_720(self, capsys):
        code, out, _ = run(capsys, "cover", "--b", "primes", "--mod", "720")
        assert out.splitlines()[0] == "195"

    def test_factorials_past_the_step_budget_exit_3(self, capsys):
        # in budget as a bitmap, but its factorials vanish only at 9999991!
        code, out, err = run(capsys, "cover", "--b", "factorials", "--mod", "9999991")
        assert code == 3 and out == ""
        assert err.startswith("resource error:") and len(err.splitlines()) == 1

    def test_factorials_beyond_budget_exits_3_at_once(self):
        # a prime modulus above 2**28: the j! loop would run ~10**9 times
        proc = run_process("cover", "--b", "factorials", "--mod", "1073741831")
        assert proc.returncode == 3
        assert proc.stderr.startswith("resource error:")


class TestProfile:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "profile", "--b", "factorials",
                           "--n-max", "6")
        assert code == 0
        assert "eps=1/120" in out
        assert "verdict: consistent with small" in out

    def test_json(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        code, _, _ = run(capsys, "profile", "--b", "primes", "--n-max", "6",
                         "--json", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["oracle"] == "primes"
        assert len(doc["rows"]) == 6

    def test_text_to_out_file(self, tmp_path, capsys):
        # --out takes the text form too, byte for byte what stdout shows
        code, shown, _ = run(capsys, "profile", "--b", "powers", "--n-max", "3")
        assert code == 0
        path = tmp_path / "prof.txt"
        code, out, _ = run(capsys, "profile", "--b", "powers", "--n-max", "3",
                           "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == shown

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_n_max_below_one_is_usage_error(self, capsys, n_max):
        code, out, err = run(capsys, "profile", "--b", "primes", "--n-max", n_max)
        assert code == 1 and out == ""
        assert err == "error: n_max must be at least 1\n"


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _set(path, value):
    """Mutator setting ``doc[path[0]][path[1]]... = value``."""
    return lambda doc: _parent(doc, path).__setitem__(path[-1], value)


def _delete(*path):
    return lambda doc: _parent(doc, path).__delitem__(path[-1])


def _set_bit(level, bit):
    """Mutator setting one bit of the last byte of a level's H bitmap."""
    def mutate(doc):
        H = doc["levels"][level]["H"]
        data = bytearray.fromhex(H["data"])
        data[-1] |= 1 << bit
        H["data"] = data.hex()
    return mutate


# each entry edits a valid depth-4 tower document in place, or returns
# replacement text
MALFORMED = {
    "not-json": lambda doc: "{levels: [",
    "not-an-object": lambda doc: "[1, 2]",
    "no-alpha": _delete("alpha"),
    "no-L": _delete("levels", 2, "L"),
    "no-H-data": _delete("levels", 1, "H", "data"),
    "levels-not-a-list": _set(("levels",), {"n": 1}),
    "too-deep": lambda doc: doc["levels"].extend(doc["levels"][-1:] * 8),
    "n-skips": _set(("levels", 2, "n"), 5),
    "n-huge": _set(("levels", 0, "n"), 10**9),
    "n-as-string": _set(("levels", 0, "n"), "1"),
    "h-at-modulus": _set(("levels", 3, "h"), 24),
    "h-plus-modulus": lambda doc: doc["levels"][3].update(h=doc["levels"][3]["h"] + 24),
    "h-negative": _set(("levels", 2, "h"), -1),
    "k-at-level-one": _set(("levels", 0, "k_chosen"), 0),
    "k-negative": _set(("levels", 1, "k_chosen"), -1),
    "k-missing-after-level-one": _set(("levels", 1, "k_chosen"), None),
    "k-as-string": _set(("levels", 1, "k_chosen"), "1"),
    "rational-zero-denominator": _set(("levels", 1, "U"), "1/0"),
    "rational-garbage": _set(("levels", 1, "densityA"), "half"),
    "rational-not-a-string": _set(("alpha",), 0.5),
    # refused by the guard that --alpha uses, before Fraction builds 10**e
    "rational-exponent-1e-10000000": _set(("alpha",), "1e-10000000"),
    "rational-exponent-1e-1000000": _set(("levels", 2, "L"), "1e-1000000"),
    "nested-200000-deep": lambda doc: "[" * 200000 + "]" * 200000,
    "bad-hex": _set(("levels", 1, "H", "data"), "zz"),
    # bytes.fromhex reads these, but they would not round-trip
    "hex-with-space": _set(("levels", 3, "H", "data"), "57 5555"),
    "hex-upper-case": _set(("levels", 3, "H", "data"), "5755D5"),
    "short-bitmap": _set(("levels", 3, "H", "data"), "ff"),
    # padding bits past n! in the last byte, for the moduli 1, 2 and 6
    "padding-bit-level-1": _set_bit(0, 1),
    "padding-bit-level-2": _set_bit(1, 7),
    "padding-bit-6-level-3": _set_bit(2, 6),
    "padding-bit-7-level-3": _set_bit(2, 7),
    "unknown-encoding": _set(("levels", 1, "H", "encoding"), "rle"),
    "exact-not-bool": _set(("exact",), "false"),
    "oracle-number": _set(("oracle",), 1e2),
    "oracle-null": _set(("oracle",), None),
    "trivial-with-levels": _set(("trivial",), True),
}


class TestVerify:
    def _tower_file(self, tmp_path, capsys, alpha="1/2", depth="4", b="finite:0"):
        path = tmp_path / "tower.json"
        code, _, _ = run(capsys, "construct", "--b", b, "--alpha", alpha,
                         "--depth", depth, "--out", str(path))
        assert code == 0
        return path

    def test_pass(self, tmp_path, capsys):
        tower = self._tower_file(tmp_path, capsys)
        out = tmp_path / "report.json"
        code, _, err = run(capsys, "verify", "--tower", str(tower),
                           "--b", "finite:0", "--horizon", "10000",
                           "--out", str(out))
        assert code == 0
        assert "PASS" in err
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "PASS"
        assert doc["cross_density"]["verdict"] == "PASS"
        assert doc["config"]["horizon"] == 10000

    def test_tower_is_checked_once(self, tmp_path, capsys, monkeypatch):
        import buckdens.construction as construction
        checks = []

        class CountingReport(construction.ClaimAReport):
            def __init__(self, *args, **kwargs):
                checks.append(1)
                super().__init__(*args, **kwargs)

        tower = self._tower_file(tmp_path, capsys)
        monkeypatch.setattr(construction, "ClaimAReport", CountingReport)
        code, _, _ = run(capsys, "verify", "--tower", str(tower),
                         "--b", "finite:0", "--horizon", "1000")
        assert code == 0 and len(checks) == 1

    @pytest.mark.parametrize("horizon", ["0", "-5"])
    def test_horizon_below_one_is_usage_error(self, tmp_path, capsys, horizon):
        tower = self._tower_file(tmp_path, capsys)
        code, out, err = run(capsys, "verify", "--tower", str(tower),
                             "--b", "finite:0", "--horizon", horizon)
        assert code == 1 and out == ""
        assert err == "error: horizon must be at least 1\n"

    def test_horizon_beyond_budget_exits_3_at_once(self, tmp_path, capsys):
        # 10**11 bytes per window: refused before any window is allocated
        tower = self._tower_file(tmp_path, capsys)
        proc = run_process("verify", "--tower", str(tower), "--b", "finite:0",
                           "--horizon", "100000000000")
        assert proc.returncode == 3
        assert proc.stderr.startswith("resource error:")
        assert len(proc.stderr.splitlines()) == 1

    def test_tampered_tower_exits_2(self, tmp_path, capsys):
        t = construct(FiniteOracle([0]), Fraction(1, 2), 4)
        lv = t.levels[2]
        bad_levels = list(t.levels)
        bad_levels[2] = replace(lv, H=lv.H.discard(2),
                                density_a=Fraction(len(lv.H) - 1, lv.modulus))
        bad = Tower(alpha=t.alpha, oracle_spec=t.oracle_spec, exact=t.exact,
                    levels=bad_levels)
        path = tmp_path / "bad.json"
        path.write_text(tower_to_json(bad))
        code, _, err = run(capsys, "verify", "--tower", str(path),
                           "--b", "finite:0", "--horizon", "1000")
        assert code == 2
        assert "FAILED" in err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "verify", "--tower",
                         str(tmp_path / "nope.json"),
                         "--b", "primes", "--horizon", "100")
        assert code == 1

    @pytest.mark.parametrize("mutate", list(MALFORMED), ids=list(MALFORMED))
    def test_malformed_tower_is_usage_error(self, tmp_path, capsys, mutate):
        doc = json.loads(tower_to_json(
            construct(FiniteOracle([0]), Fraction(1, 2), 4)))
        text = MALFORMED[mutate](doc)
        path = tmp_path / "bad.json"
        path.write_text(text if isinstance(text, str) else json.dumps(doc))
        code, out, err = run(capsys, "verify", "--tower", str(path),
                             "--b", "finite:0", "--horizon", "1000")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err


class TestAxioms:
    def test_pass(self, tmp_path, capsys):
        out = tmp_path / "axioms.json"
        code, _, err = run(capsys, "axioms", "--samples", "100",
                           "--seed", "7", "--out", str(out))
        assert code == 0
        assert "4/4 PASS" in err
        assert json.loads(out.read_text())["verdict"] == "PASS"

    def test_deterministic_given_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(capsys, "axioms", "--samples", "50", "--seed", "3",
                "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_density(self):
        # Buck's density is the only evaluator, so no flag names one
        for density in ("schnirelmann", "buck"):
            proc = run_process("axioms", "--density", density, "--samples", "5")
            assert proc.returncode == 1 and proc.stdout == ""
            assert proc.stderr == f"error: unrecognized arguments: --density {density}\n"


class TestEstimate:
    def test_periodic_file(self, tmp_path, capsys):
        path = tmp_path / "set.txt"
        path.write_text(dumps_periodic(ResidueSet(6, [1, 2, 3, 5])))
        code, out, _ = run(capsys, "estimate", "--set", str(path),
                           "--horizon", "100000")
        assert code == 0
        assert "exact density   : 2/3" in out
        for line in out.splitlines()[1:]:
            for tok in line.split():
                if "=" in tok:
                    tok = tok.split("=")[1]
                try:
                    val = float(tok)
                except ValueError:
                    continue
                if 0 < val <= 1:
                    assert abs(val - 2 / 3) < 0.01

    @pytest.mark.parametrize("horizon", ["5", "99", "100000"])
    def test_prints_the_window_the_proxies_default_to(self, tmp_path, capsys,
                                                      monkeypatch, horizon):
        from buckdens import density

        used = []
        real_banach = density.empirical_banach

        def banach(ind, window, *args):
            used.append(window)
            return real_banach(ind, window, *args)

        monkeypatch.setattr(density, "default_window", lambda h: max(1, h // 7))
        monkeypatch.setattr(density, "empirical_banach", banach)
        path = tmp_path / "set.txt"
        path.write_text(dumps_periodic(ResidueSet(6, [1, 2, 3, 5])))
        code, out, _ = run(capsys, "estimate", "--set", str(path), "--horizon", horizon)
        assert code == 0
        assert used == [max(1, int(horizon) // 7)]
        assert f"(window {used[0]})" in out

    def test_horizon_beyond_budget_exits_3_at_once(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text(dumps_periodic(ResidueSet(6, [1, 2, 3, 5])))
        proc = run_process("estimate", "--set", str(path), "--horizon", "100000000000")
        assert proc.returncode == 3
        assert proc.stderr.startswith("resource error:")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("window", ["0", "-2"])
    def test_window_below_one_is_usage_error(self, tmp_path, capsys, window):
        path = tmp_path / "set.txt"
        path.write_text(dumps_periodic(ResidueSet(6, [1, 2, 3, 5])))
        code, out, err = run(capsys, "estimate", "--set", str(path),
                             "--horizon", "1000", "--window", window)
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("text", [
        "modulus 5\nresidues -1,2\n",     # -1 would wrap to 4
        "modulus 5\nresidues 2,5\n",
        "modulus 5\nbitmap ffff\n",       # a spare byte, padding bits set
        "modulus 5\nbitmap e4\n",         # padding bits 5..7 set
        "modulus 12\nbitmap ff\n",        # one byte short
        "modulus 0\nresidues \n",         # no period for the Banach scan
        "modulus -6\nresidues \n",
        "modulus 12\nbitmap FF 0F\n",     # bytes.fromhex takes these two,
        "modulus 12\nbitmap ff 0f\n",     # dumps_periodic writes neither
    ], ids=["negative", "residue-k", "spare-byte", "padding", "short", "zero-modulus",
            "negative-modulus", "upper-case-spaced", "spaced"])
    def test_malformed_set_file_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "set.txt"
        path.write_text(text)
        code, out, err = run(capsys, "estimate", "--set", str(path),
                             "--horizon", "100")
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_bad_file(self, tmp_path, capsys):
        path = tmp_path / "set.txt"
        path.write_text("garbage\n")
        code, _, _ = run(capsys, "estimate", "--set", str(path),
                         "--horizon", "100")
        assert code == 1
