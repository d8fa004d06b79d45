"""Byte-exact CLI outputs: sha256 of ``construct`` stdout for each built-in
oracle, of one ``verify`` report and of ``estimate`` on one set file of each
format.  A change to these digests is a change
to the tower or report format and must be deliberate."""

import hashlib

import pytest

from buckdens.cli import main

CONSTRUCT = {
    ("primes", "1/2", "7"):
        "4047710cdcee881f220cc84dd68c949b07a4bb14a6c59b34a6753b3ac2612845",
    ("powers", "2/3", "7"):
        "7e1105534b0d8c89a17eca025aeadacb563c91f408bf6058d0b8345d02a7eb7d",
    ("factorials", "1/3", "7"):
        "35d40c2b5dd6e1a15d7036da216502c9b0e53028b6eb73967d537b68c2a510d8",
    ("finite:0,24,7", "3/5", "6"):
        "f7bcf9b509735eea895aea2a6146fd20a24bcf75c8411977c81aabed6011870b",
    # at depth 10 a level's hex runs past one chunk of the codec
    ("primes", "1/2", "10"):
        "38e205ba2ea8a7310712d4c8d94e6c297f198953693207cea2fdbdb1f7b4b69c",
    ("powers", "2/3", "10"):
        "44955a40e258431ca9455dd1104d5b96bac3ef68b045620fb872aa7b362350e1",
}

# a depth-11 tower written with --out: 11 MB, the hex of its top level
# alone spans several chunks
CONSTRUCT_OUT = "729c6b748bb6870fd2137b810feac9afd2ba44c82a69831c08e34e87de975f90"

VERIFY = "7274d5b35a4f3a5abf24d4ba50c34b204a07c0676ab850d730754a0121a37917"

# at horizon 10**4 the logarithmic proxy's dot product has at most 10**4
# terms, which it sums in one piece
ESTIMATE_SETS = {
    "residues": "modulus 30\nresidues 1,7,11,13,17,19,23,29\n",
    "bitmap": "modulus 20\nbitmap a5c30f\n",
}
ESTIMATE = {
    ("residues", None):
        "17b798b7f85514506b5032beb055710ad46b52a91b8b41f482de604a2bf8b7cf",
    ("residues", "137"):
        "bd94c80b199a5f002c43337e025aff04c160c77b1ba125f47b9db0962ac19af8",
    ("bitmap", None):
        "c3cae8b81b3a69ac4d08c90e16c339cd2f1a043c6d58ab5668a6b9d7281567d2",
    ("bitmap", "137"):
        "57e05f9ed96660e4c6dbd347373cc9c32b43a7b2f140223c252c1b7dce3f18e7",
}


def stdout_digest(capsys, *argv):
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("spec, alpha, depth", list(CONSTRUCT))
def test_construct_stdout(capsys, spec, alpha, depth):
    digest = stdout_digest(capsys, "construct", "--b", spec, "--alpha", alpha,
                           "--depth", depth)
    assert digest == CONSTRUCT[spec, alpha, depth]


def test_construct_out_file(tmp_path, capsys):
    path = tmp_path / "tower.json"
    assert main(["construct", "--b", "factorials", "--alpha", "1/3", "--depth", "11",
                 "--allow-deep", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CONSTRUCT_OUT


def test_verify_report(tmp_path, monkeypatch, capsys):
    # the report echoes the tower path, so it is given relative to a fixed cwd
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "--b", "primes", "--alpha", "1/2", "--depth", "6",
                 "--out", "tower.json"]) == 0
    capsys.readouterr()
    digest = stdout_digest(capsys, "verify", "--tower", "tower.json", "--b",
                           "primes", "--horizon", "10000")
    assert digest == VERIFY


@pytest.mark.parametrize("kind, window", list(ESTIMATE))
def test_estimate_stdout(tmp_path, capsys, kind, window):
    path = tmp_path / "set.txt"
    path.write_text(ESTIMATE_SETS[kind])
    extra = ["--window", window] if window else []
    digest = stdout_digest(capsys, "estimate", "--set", str(path),
                           "--horizon", "10000", *extra)
    assert digest == ESTIMATE[kind, window]
