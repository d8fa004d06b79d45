"""Byte-exact CLI outputs: sha256 of ``construct`` stdout for each built-in
oracle and of one ``verify`` report.  A change to these digests is a change
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
}

VERIFY = "7274d5b35a4f3a5abf24d4ba50c34b204a07c0676ab850d730754a0121a37917"


def stdout_digest(capsys, *argv):
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("spec, alpha, depth", list(CONSTRUCT))
def test_construct_stdout(capsys, spec, alpha, depth):
    digest = stdout_digest(capsys, "construct", "--b", spec, "--alpha", alpha,
                           "--depth", depth)
    assert digest == CONSTRUCT[spec, alpha, depth]


def test_verify_report(tmp_path, monkeypatch, capsys):
    # the report echoes the tower path, so it is given relative to a fixed cwd
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "--b", "primes", "--alpha", "1/2", "--depth", "6",
                 "--out", "tower.json"]) == 0
    capsys.readouterr()
    digest = stdout_digest(capsys, "verify", "--tower", "tower.json", "--b",
                           "primes", "--horizon", "10000")
    assert digest == VERIFY
