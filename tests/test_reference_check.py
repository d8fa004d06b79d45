"""Tower files against the stdlib re-check in ``reference_check``, which
reads the JSON bytes, derives each cover from its definition and rebuilds
each H from the file's k's."""

import json
import math
from fractions import Fraction

import pytest

from buckdens.construction import check_claimA, construct, tower_to_json
from buckdens.oracles import parse_oracle

from reference_check import cover_for, reference_check

SPECS = ("primes", "powers", "factorials", "finite:0,24,7")
_COVERS = {spec: {} for spec in SPECS}


def cached_cover(spec):
    cache, cover = _COVERS[spec], cover_for(spec)
    return lambda m: cache[m] if m in cache else cache.setdefault(m, cover(m))


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(3, 4)], ids=["half", "three-quarters"])
@pytest.mark.parametrize("depth", [7, 8])
@pytest.mark.parametrize("spec", SPECS)
def test_file_and_check_match_the_reference(spec, depth, alpha):
    oracle = parse_oracle(spec)
    tower = construct(oracle, alpha, depth)
    text = tower_to_json(tower)
    ref = reference_check(text, cached_cover(spec))
    report = check_claimA(tower, oracle)
    assert report.ok
    assert len(ref) == len(report.checks) == depth
    for lv, check, want in zip(tower.levels, report.checks, ref):
        assert want["L"] <= alpha < want["U"]
        assert (lv.n, lv.sum_lower, lv.sum_upper, lv.h, lv.k_chosen) == \
            (want["n"], want["L"], want["U"], want["h"], want["k"])
        assert lv.density_a * math.factorial(lv.n) == want["size"]
        assert (check.lower, check.upper) == (want["L"], want["U"])
    assert [want["rebuilt"] for want in ref] == \
        [lv["H"]["data"] for lv in json.loads(text)["levels"]]
