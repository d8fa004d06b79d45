"""Inputs, jobs and output checks of the four workloads.

A job is one pass over a workload's fixed input list.  Everything a job
uses is drawn from the benchmark seed: each alpha as p/q with q <= 12 and
1/2 <= alpha < 1, the ``axioms`` seed, the periodic set given to
``estimate`` and the order of the CLI commands.

Alpha stays at or above 1/2 because cost depends on it below that.  There
the top levels of a powers tower (alpha < 3/7) or a primes tower
(alpha < 1/4) hold a single class, so ``check_claimA`` takes the shift-OR
path instead of the FFT and the definite window of ``verify`` is empty: a
job then does a third to a half of the work, and its time would follow the
seed instead of the code.  From 1/2 up every tower takes the same paths.

Every check a job makes is one operation in the ``Ledger``; an operation
fails when it raises, exits non-zero, or gives a wrong result.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from layers import merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("tower-dense", "tower-sparse", "verify", "cli")

# "toy" runs every code path in seconds; it backs the smoke test only
PARAMS = {
    "full": {
        "tower-dense": {"specs": ("primes", "powers"), "depth": 10},
        "tower-sparse": {"specs": ("factorials", "finite:0,24,7"), "depth": 11},
        "verify": {"specs": ("primes", "powers"), "depth": 8,
                   "horizon": 10**6, "count_horizon": 10**4},
        "cli": {"cover_mods": (720, 3628800), "profile_n": 8, "samples": 1000,
                "construct_depths": (6, 8), "tower_depth": 8,
                "verify_horizon": 10**4, "estimate_horizon": 10**6},
    },
    "toy": {
        "tower-dense": {"specs": ("primes", "powers"), "depth": 6},
        "tower-sparse": {"specs": ("factorials", "finite:0,24,7"), "depth": 7},
        "verify": {"specs": ("primes", "powers"), "depth": 6,
                   "horizon": 10**4, "count_horizon": 10**3},
        "cli": {"cover_mods": (24, 720), "profile_n": 5, "samples": 50,
                "construct_depths": (4, 5), "tower_depth": 5,
                "verify_horizon": 10**3, "estimate_horizon": 10**4},
    },
}

# moduli for the periodic set handed to ``estimate``
_SET_MODULI = (6, 10, 12, 30, 60, 210)


def draw_alpha(rng: random.Random) -> Fraction:
    q = rng.randint(2, 12)
    return Fraction(rng.randint((q + 1) // 2, q - 1), q)


def make_inputs(workload: str, seed: int, size: str) -> dict:
    """The workload's input list; the same seed gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    p = PARAMS[size][workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload != "cli":
        return dict(p, alphas=[draw_alpha(rng) for _ in p["specs"]])
    k = rng.choice(_SET_MODULI)
    residues = sorted(rng.sample(range(k), rng.randint(1, k - 1)))
    d6, d8 = p["construct_depths"]
    commands = [
        (f"cover-{p['cover_mods'][0]}", ["cover", "--b", "factorials",
                                         "--mod", str(p["cover_mods"][0])]),
        (f"cover-{p['cover_mods'][1]}", ["cover", "--b", "primes",
                                         "--mod", str(p["cover_mods"][1])]),
        ("profile", ["profile", "--b", "powers", "--n-max", str(p["profile_n"])]),
        ("axioms", ["axioms", "--samples", str(p["samples"]),
                    "--seed", str(rng.randrange(2**31))]),
        (f"construct-{d6}", ["construct", "--b", "primes", "--alpha",
                             str(draw_alpha(rng)), "--depth", str(d6)]),
        (f"construct-{d8}", ["construct", "--b", "powers", "--alpha",
                             str(draw_alpha(rng)), "--depth", str(d8)]),
        ("verify", ["verify", "--tower", "tower.json", "--b", "primes",
                    "--horizon", str(p["verify_horizon"])]),
        ("estimate", ["estimate", "--set", "set.txt",
                      "--horizon", str(p["estimate_horizon"])]),
    ]
    rng.shuffle(commands)
    return {
        "commands": commands,
        "tower_depth": p["tower_depth"],
        "tower_alpha": draw_alpha(rng),
        "set_text": f"modulus {k}\nresidues {','.join(map(str, residues))}\n",
    }


def flip_top_bit(tower_text: str) -> str:
    """The same tower JSON with residue 0 of the top level's H toggled."""
    doc = json.loads(tower_text)
    top = doc["levels"][-1]["H"]
    data = bytearray.fromhex(top["data"])
    data[0] ^= 1
    top["data"] = data.hex()
    return json.dumps(doc, indent=2) + "\n"


class Ledger:
    """Attempted and failed operations of one job, plus output digests."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok

    def error(self, name: str, exc: Exception) -> None:
        self.check(f"{name}:raised {type(exc).__name__}: {exc}", False)

    def digest(self, name: str, data: bytes) -> None:
        self.digests[name] = hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# independent reference for |(A+B) ∩ [1, T]|, sharing no code with buckdens

def _reference_members(spec: str, horizon: int) -> list[int]:
    if spec == "primes":
        sieve = bytearray([1]) * (horizon + 1)
        sieve[:2] = b"\x00\x00"
        for n in range(2, int(horizon**0.5) + 1):
            if sieve[n]:
                sieve[n * n::n] = bytes(len(range(n * n, horizon + 1, n)))
        return [n for n in range(horizon + 1) if sieve[n]]
    if spec == "powers":
        found = {0, 1}
        a = 2
        while a * a <= horizon:
            v = a * a
            while v <= horizon:
                found.add(v)
                v *= a
            a += 1
        return sorted(found)
    raise ValueError(f"no reference enumeration for {spec!r}")


def reference_sumset_count(tower_text: str, spec: str, horizon: int) -> tuple[int, int]:
    """(lower, upper) count of A+B on [1, horizon], read straight from the
    tower JSON: the top level's H, minus the marked class for the lower
    count, tiled as a Python integer bitset and shifted by each member of B."""
    top = json.loads(tower_text)["levels"][-1]
    modulus = 1
    for i in range(2, top["n"] + 1):
        modulus *= i
    period = int.from_bytes(bytes.fromhex(top["H"]["data"]), "little")
    period &= (1 << modulus) - 1
    upper_a = lower_a = 0
    for start in range(0, horizon + 1, modulus):
        upper_a |= period << start
        lower_a |= (period & ~(1 << top["h"])) << start
    window = ((1 << (horizon + 1)) - 1) & ~1  # the integers 1..horizon
    counts = []
    for a_bits in (lower_a, upper_a):
        total = 0
        for b in _reference_members(spec, horizon):
            total |= a_bits << b
        counts.append((total & window).bit_count())
    return counts[0], counts[1]


# ---------------------------------------------------------------------------
# jobs; ``setup`` imports buckdens and returns the job callable

def setup(workload: str, inputs: dict, workdir: Path, fault: bool):
    if workload in ("tower-dense", "tower-sparse"):
        return _setup_tower(inputs, fault)
    if workload == "verify":
        return _setup_verify(inputs, workdir, fault)
    return _setup_cli(inputs, workdir, fault)


def _setup_tower(inputs: dict, fault: bool):
    from buckdens.construction import (
        DEFAULT_MAX_DEPTH, check_claimA, construct, tower_from_json, tower_to_json)
    from buckdens.oracles import parse_oracle

    depth = inputs["depth"]

    def job(ledger: Ledger, traced: bool) -> dict:
        for spec, alpha in zip(inputs["specs"], inputs["alphas"]):
            name = f"tower[{spec}]"
            try:
                oracle = parse_oracle(spec)  # fresh: no covers carried between jobs
                tower = construct(oracle, alpha, depth,
                                  allow_deep=depth > DEFAULT_MAX_DEPTH)
                text = tower_to_json(tower, {"b": spec, "alpha": str(alpha),
                                             "depth": depth})
                if fault:
                    text = flip_top_bit(text)
                parsed, config = tower_from_json(text)
                ledger.check(f"{name}:roundtrip", tower_to_json(parsed, config) == text)
                ledger.check(f"{name}:claimA", check_claimA(parsed, oracle).ok)
                ledger.digest(f"{name}.json", text.encode())
            except Exception as exc:  # counted as a failed operation
                ledger.error(name, exc)
        return {}

    return job


def _setup_verify(inputs: dict, workdir: Path, fault: bool):
    from buckdens.construction import (
        check_claimA, construct, tower_from_json, tower_to_json)
    from buckdens.oracles import parse_oracle
    from buckdens.verify import cross_density_check, enumerate_sumset, theorem_report

    horizon, count_horizon = inputs["horizon"], inputs["count_horizon"]
    files = []
    for spec, alpha in zip(inputs["specs"], inputs["alphas"]):
        text = tower_to_json(construct(parse_oracle(spec), alpha, inputs["depth"]),
                             {"b": spec, "alpha": str(alpha), "depth": inputs["depth"]})
        path = workdir / f"tower-{spec}.json"
        path.write_text(flip_top_bit(text) if fault else text)
        files.append((spec, path))

    def job(ledger: Ledger, traced: bool) -> dict:
        # what ``buckdens verify --horizon T`` does, once per tower
        for spec, path in files:
            name = f"verify[{spec}]"
            try:
                text = path.read_text()
                tower, config = tower_from_json(text)
                ledger.check(f"{name}:roundtrip", tower_to_json(tower, config) == text)
                oracle = parse_oracle(spec)
                if not ledger.check(f"{name}:claimA", check_claimA(tower, oracle).ok):
                    continue
                report = theorem_report(oracle, tower.alpha, max(tower.depth, 1),
                                        horizon, tower=tower)
                cross = cross_density_check(tower, oracle, horizon)
                # the verdict ``buckdens verify`` exits on; the cross-density
                # verdict is a heuristic slack test and is only digested
                ledger.check(f"{name}:report", report.passed)
                doc = report.to_json_dict()
                doc["cross_density"] = cross.to_json_dict()
                doc["config"] = {"command": "verify", "tower": path.name, "b": spec,
                                 "horizon": horizon}
                ledger.digest(f"{name}.report.json",
                              (json.dumps(doc, indent=2) + "\n").encode())
                ledger.check(f"{name}:count_vs_reference",
                             enumerate_sumset(tower, oracle, count_horizon)
                             == reference_sumset_count(text, spec, count_horizon))
            except Exception as exc:  # counted as a failed operation
                ledger.error(name, exc)
        return {}

    return job


def cli_env() -> dict:
    """Child environment: ``src`` on the path and the default configuration,
    so the backend and dense-budget overrides are never passed on."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("BUCKDENS_BACKEND", "BUCKDENS_DENSE_LIMIT")}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _setup_cli(inputs: dict, workdir: Path, fault: bool):
    from buckdens.construction import construct, tower_to_json
    from buckdens.oracles import parse_oracle

    depth, alpha = inputs["tower_depth"], inputs["tower_alpha"]
    text = tower_to_json(construct(parse_oracle("primes"), alpha, depth),
                         {"b": "primes", "alpha": str(alpha), "depth": depth})
    (workdir / "tower.json").write_text(flip_top_bit(text) if fault else text)
    (workdir / "set.txt").write_text(inputs["set_text"])
    env = cli_env()

    def job(ledger: Ledger, traced: bool) -> dict:
        cmd_s: dict[str, list[float]] = {}
        summary: dict = {}
        for label, argv in inputs["commands"]:
            spans_file = workdir / "spans.json"
            if traced:
                prefix = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file)]
            else:
                prefix = [sys.executable, "-m", "buckdens.cli"]
            t0 = time.perf_counter()
            proc = subprocess.run(prefix + argv, cwd=workdir, env=env,
                                  capture_output=True, timeout=150)
            wall = time.perf_counter() - t0
            cmd_s.setdefault(argv[0], []).append(wall)
            ledger.check(f"cli[{label}]:exit={proc.returncode}", proc.returncode == 0)
            ledger.digest(f"cli[{label}].stdout", proc.stdout)
            if traced and spans_file.exists():
                merge(summary, json.loads(spans_file.read_text()))
                spans_file.unlink()
        return {"cmd_s": cmd_s, "summary": summary if traced else None}

    return job
