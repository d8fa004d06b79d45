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
DEPTH = 4
TOWER = tower_to_json(construct(PrimesOracle(), Fraction(1, 2), DEPTH))
SET_TEXT = "modulus 6\nresidues 1,2,3,5\n"

# argv tokens name files as "{dir}/...", filled in once the directory exists
SPECS = st.one_of(
    st.sampled_from(["primes", "factorials", "powers", "finite:0", "finite:0,24,7",
                     "file:{dir}/b.txt", "pred-enum:{dir}/pred.py:50"]),
    st.sampled_from(["finite:", "finite:x", "finite:-1", "nope", "file:{dir}/set.txt",
                     "file:{dir}/missing.txt", "pred-enum:{dir}/pred.py:x",
                     "pred-enum:{dir}/missing.py:10", "pred-enum:"]),
)


def ints(lo, hi, *edges):
    """Flag values: integers in [lo, hi] (drawn twice as often as the
    rest), chosen edge values, and strings that are not integers."""
    return st.one_of(st.integers(lo, hi), st.integers(lo, hi),
                     st.sampled_from(edges + (0, 1, -1)),
                     st.sampled_from(["x", "", "1.5", "-", "1e3"])).map(str)


ALPHAS = st.one_of(
    st.sampled_from(["1/2", "0", "1", "9/10", "1/3", "3/2", "-1/2", "0.25", "x",
                     "1/0", "", "nan", "inf", "1e5", " 2/3 "]),
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
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("fuzz")
    (path / "b.txt").write_text("0\n24\n7\n")
    (path / "pred.py").write_text("def member(n):\n    return n % 3 == 0\n")
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
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(COMMANDS)
@example(({"tower.json": TOWER},
          ["verify", "--tower", "{dir}/tower.json", "--b", "primes", "--horizon", "0"]))
@example(({}, ["profile", "--b", "primes", "--n-max", "0"]))
def test_every_input_ends_in_a_documented_exit_code(workdir, command):
    files, argv = command
    for name, text in files.items():
        (workdir / name).write_text(text)
    code, err = run_cli([arg.replace("{dir}", str(workdir)) for arg in argv])
    assert code in EXIT_CODES
    if code != 0:
        assert err.strip()
