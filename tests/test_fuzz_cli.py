"""Fuzz the CLI's input boundary in-process.

Mutated tower JSON, set files, oracle specs and flag values must each end
in a documented exit code (0 success, 1 usage, 2 certificate, 3 resource)
with a message on stderr, never an uncaught exception.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buckdens.cli import main
from buckdens.construction import construct, tower_to_json
from buckdens.oracles import PrimesOracle

EXIT_CODES = {0, 1, 2, 3}
# an exponent inside the bound, but 3501 fraction digits: 10**-4501 in all
LONG_FRACTION = "0." + "0" * 3500 + "1e-1000"
# integer strings past Python's 4300-digit conversion limit
LONG_INTEGER = "1" * 5000
LONG_DENOMINATOR = "1/" + "1" * 5000
DEPTH = 4
TOWER = tower_to_json(construct(PrimesOracle(), Fraction(1, 2), DEPTH))
SET_TEXT = "modulus 6\nresidues 1,2,3,5\n"

# argv tokens name files as "{dir}/...", filled in once the directory exists
SPECS = st.one_of(
    st.sampled_from(["primes", "factorials", "powers", "finite:0", "finite:0,24,7",
                     "file:{dir}/b.txt", "pred-enum:{dir}/pred.py:50"]),
    st.sampled_from(["finite:", "finite:x", "finite:-1", "nope", "file:{dir}/set.txt",
                     "file:{dir}/missing.txt", "pred-enum:{dir}/pred.py:x",
                     "pred-enum:{dir}/missing.py:10", "pred-enum:",
                     "pred-enum:{dir}/syntax.py:10", "pred-enum:{dir}/raises.py:10",
                     "pred-enum:{dir}/pred.py:100000000000", "pred-enum:{dir}/pred.py:-5"]),
)


def ints(lo, hi, *edges):
    """Flag values: integers in [lo, hi] (drawn twice as often as the
    rest), chosen edge values, and strings that are not integers."""
    return st.one_of(st.integers(lo, hi), st.integers(lo, hi),
                     st.sampled_from(edges + (0, 1, -1)),
                     st.sampled_from(["x", "", "1.5", "-", "1e3"])).map(str)


ALPHAS = st.one_of(
    st.sampled_from(["1/2", "0", "1", "9/10", "1/3", "3/2", "-1/2", "0.25", "x",
                     "1/0", "", "nan", "inf", "1e5", " 2/3 ", "1e-3000000", "1e5000",
                     "1e-4400", LONG_FRACTION, LONG_INTEGER, LONG_DENOMINATOR]),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 12), st.integers(-1, 12)),
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**12, 10**12) | st.text(max_size=6)
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5,
)
PLAUSIBLE = st.one_of(
    st.integers(-30, 30),
    st.sampled_from(["1/2", "0", "1", "-1/3", "1/0", "x", "nan", "inf", "ff",
                     "hex-bitmap-le", "buckdens-tower-v1"]),
    JSON_VALUES,
)
PATHS = st.one_of(
    st.tuples(st.sampled_from(["schema", "alpha", "oracle", "exact", "trivial",
                               "config", "levels"])),
    st.tuples(st.just("levels"), st.integers(0, DEPTH - 1),
              st.sampled_from(["n", "k_chosen", "h", "H", "densityA", "L", "U"])),
    st.tuples(st.just("levels"), st.integers(0, DEPTH - 1), st.just("H"),
              st.sampled_from(["encoding", "data"])),
)
EDITS = st.one_of(
    st.tuples(st.just("set"), PATHS, PLAUSIBLE),
    st.tuples(st.just("delete"), PATHS, st.none()),
    st.tuples(st.just("flip"), st.tuples(st.integers(0, DEPTH - 1)), st.integers(0, 10**6)),
)


def _apply(doc, edit):
    kind, path, value = edit
    try:
        if kind == "flip":   # change one hex digit of a level's bitmap
            h = doc["levels"][path[0]]["H"]
            i = value % len(h["data"])
            digit = int(h["data"][i], 16) ^ (1 + value % 15)
            h["data"] = h["data"][:i] + format(digit, "x") + h["data"][i + 1:]
            return
        target = doc
        for key in path[:-1]:
            target = target[key]
        if kind == "set":
            target[path[-1]] = value
        else:
            del target[path[-1]]
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
        pass   # an earlier edit removed or retyped the path


@st.composite
def tower_texts(draw):
    doc = json.loads(TOWER)
    for edit in draw(st.lists(EDITS, max_size=2)):
        _apply(doc, edit)
    text = json.dumps(doc, indent=2)
    if draw(st.integers(0, 3)) == 0:   # a truncated file
        return text[:draw(st.integers(0, len(text) - 1))]
    return text


SET_TEXTS = st.one_of(
    st.just(SET_TEXT),
    st.builds(lambda k, rs: f"modulus {k}\nresidues {','.join(map(str, rs))}\n",
              ints(-3, 10**4, 2**40), st.lists(st.integers(-10, 100), max_size=5)),
    st.builds(lambda k, hexdata: f"modulus {k}\nbitmap {hexdata}\n",
              ints(-3, 64, 2**40), st.sampled_from(["", "f", "ff", "0f0f", "zz", "ffffffffff"])),
    st.text(max_size=30),
)

COMMANDS = st.one_of(
    st.builds(lambda tower, spec, horizon: (
        {"tower.json": tower},
        ["verify", "--tower", "{dir}/tower.json", "--b", spec, "--horizon", horizon]),
        tower_texts(), SPECS, ints(-5, 3000, 10**7 + 1, 10**11)),
    st.builds(lambda text, horizon, window: (
        {"set.txt": text},
        ["estimate", "--set", "{dir}/set.txt", "--horizon", horizon]
        + ([] if window is None else ["--window", window])),
        SET_TEXTS, ints(-5, 3000, 10**11), st.none() | ints(-3, 3000)),
    st.builds(lambda spec, n_max: ({}, ["profile", "--b", spec, "--n-max", n_max]),
              SPECS, ints(-3, 7)),
    st.builds(lambda spec, alpha, depth: (
        {}, ["construct", "--b", spec, "--alpha", alpha, "--depth", depth]),
        SPECS, ALPHAS, ints(-2, 7, 11, 12)),
    st.builds(lambda spec, mod: ({}, ["cover", "--b", spec, "--mod", mod]),
              SPECS, ints(-3, 5000, 2**28 + 1, 1073741831)),
    st.builds(lambda samples: ({}, ["axioms", "--samples", samples]), ints(-3, 20)),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("fuzz")
    (path / "b.txt").write_text("0\n24\n7\n")
    (path / "pred.py").write_text("def member(n):\n    return n % 3 == 0\n")
    (path / "syntax.py").write_text("def member(n) return\n")
    (path / "raises.py").write_text("def member(n):\n    return 1 / 0\n")
    return path


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:   # argparse refusing the flags
            code = e.code
    return code, err.getvalue()


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=40)
@given(COMMANDS)
@example(({"tower.json": TOWER},
          ["verify", "--tower", "{dir}/tower.json", "--b", "primes", "--horizon", "0"]))
@example(({}, ["profile", "--b", "primes", "--n-max", "0"]))
@example(({}, ["cover", "--b", "pred-enum:{dir}/syntax.py:10", "--mod", "6"]))
@example(({}, ["cover", "--b", "pred-enum:{dir}/raises.py:10", "--mod", "6"]))
@example(({}, ["cover", "--b", "pred-enum:{dir}/pred.py:100000000000", "--mod", "6"]))
def test_every_input_ends_in_a_documented_exit_code(workdir, command):
    files, argv = command
    for name, text in files.items():
        (workdir / name).write_text(text)
    code, err = run_cli([arg.replace("{dir}", str(workdir)) for arg in argv])
    assert code in EXIT_CODES
    if code != 0:
        assert err.strip()


CONSTRUCT = ["construct", "--b", "primes", "--depth", "3", "--alpha"]


@pytest.mark.parametrize("argv,expected", [
    # decimal exponents past density.MAX_DECIMAL_EXPONENT, refused before Fraction
    pytest.param(CONSTRUCT + ["1e-3000000"], 1, id="alpha-1e-3000000"),
    pytest.param(CONSTRUCT + ["1e5000"], 1, id="alpha-1e5000"),
    pytest.param(CONSTRUCT + ["1e-4400"], 1, id="alpha-1e-4400"),
    pytest.param(CONSTRUCT + [LONG_FRACTION], 1, id="alpha-3501-fraction-digits"),
    # digit runs past density.MAX_LITERAL_DIGITS, refused before Fraction
    pytest.param(CONSTRUCT + [LONG_INTEGER], 1, id="alpha-5000-digit-integer"),
    pytest.param(CONSTRUCT + [LONG_DENOMINATOR], 1, id="alpha-5000-digit-denominator"),
    pytest.param(CONSTRUCT + ["x" * 5000], 1, id="alpha-5000-letters"),
    # a predicate file that does not import, or whose member raises
    pytest.param(["cover", "--b", "pred-enum:{dir}/syntax.py:10", "--mod", "6"], 1,
                 id="pred-syntax-error"),
    pytest.param(["cover", "--b", "pred-enum:{dir}/raises.py:10", "--mod", "6"], 1,
                 id="pred-member-raises"),
    # an enumeration bound past density.DEFAULT_ENUM_BUDGET
    pytest.param(["cover", "--b", "pred-enum:{dir}/pred.py:100000000000", "--mod", "6"], 3,
                 id="pred-bound-1e11"),
    pytest.param(["profile", "--b", "pred-enum:{dir}/pred.py:-5", "--n-max", "3"], 1,
                 id="pred-bound-negative"),
    pytest.param(["axioms", "--samples", "0"], 1, id="samples-0"),
    pytest.param(["axioms", "--samples", "-1"], 1, id="samples-minus-1"),
])
def test_refused_input_exits_with_one_line(workdir, argv, expected):
    code, err = run_cli([arg.replace("{dir}", str(workdir)) for arg in argv])
    assert code == expected
    assert len(err.splitlines()) == 1
    assert err.startswith("resource error:" if expected == 3 else "error:")
    assert "4300 digits" not in err
    assert len(err) < 200   # a refused literal is echoed truncated
