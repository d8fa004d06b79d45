"""Workload benchmark for buckdens: tower building, verification and the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload tower-dense --seed 0 --seconds 15 --trace 0

Workloads (inputs drawn from ``--seed``, see ``workloads.py``):

* ``tower-dense``  construct + check_claimA + JSON round trip, primes and
  powers at depth 10: dense covers and the FFT path of ``sumset_mod``.
* ``tower-sparse`` the same job for factorials and ``finite:0,24,7`` at
  depth 11: shift-OR ``sumset_mod``, ``rebase`` tiling and 11 MB of JSON.
* ``verify``       what ``buckdens verify --horizon 1000000`` does for a
  depth-8 primes tower and a depth-8 powers tower (built in set-up).
* ``cli``          eight small whole-process CLI commands, one at a time.

``run.py`` is a closed loop with one client: it runs one job at a time, each
in a fresh worker process, as many as fit in ``--seconds`` (at least one).  With ``--trace 0`` it reports the end-to-end metrics:

* ``job_s``        median wall seconds per job (quartiles and n printed);
* ``cpu_s``        median user+sys CPU seconds per job, children included;
* ``peak_rss_mb``  median peak RSS of the process doing the work (for
  ``cli`` the largest command process);
* ``setup_s``      median seconds from worker spawn to the first timed call,
  over at least five set-ups.

``fail_ratio`` (failed over attempted operations) is printed too, and is the
``failed``/``attempted`` pair of the result line.  With ``--trace 1`` the
``run.py`` alternates untraced and traced jobs and reports the per-layer metrics:
self times and work counts of spans recorded around each module's public
functions (``layers.py``), the CLI start-up cost, per-command times and the
tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Outputs are checked on every job:
exact certificates, byte-exact tower round trips, verify verdicts, an
independent sumset count, CLI exit codes, and, for seeds recorded in
``golden.json``, the sha256 of every tower JSON, report JSON and CLI stdout.

``--size toy`` shrinks every workload for the smoke test;
``--inject-fault`` flips one bit of the top level of every tower JSON the
jobs read, which must show up as failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import SPAN_METRICS, layer_metrics
from workloads import PARAMS, ROOT, SRC, WORKLOADS, cli_env

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

WORKER_TIMEOUT_S = 170
MIN_SETUPS = 5
STARTUP_PROBES = 3
CLI_COMMANDS = ("cover", "profile", "axioms", "construct", "verify", "estimate")

END_TO_END = {"job_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


class HarnessError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


def run_worker(workload: str, seed: int, size: str, *flags: str) -> dict:
    spawned = time.monotonic()
    # own session, so a timeout also stops the CLI processes a worker started
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), size, *flags],
        cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"worker for {workload} timed out") from exc
    if proc.returncode != 0 or not out.strip():
        raise HarnessError(f"worker for {workload} exited {proc.returncode}:\n"
                           f"{err.strip()[-3000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - spawned
    return result


def startup_probe() -> float:
    """Median of (``import buckdens.cli`` in a fresh interpreter) minus
    (a bare interpreter start)."""
    env = cli_env()

    def wall(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       timeout=60)
        return time.perf_counter() - t0

    diffs = [wall("import buckdens.cli") - wall("pass") for _ in range(STARTUP_PROBES)]
    return statistics.median(diffs)


def _environment(worker_env: dict) -> dict:
    env = {"git_sha": "unknown", "git_dirty": None}
    if (ROOT / ".git").exists():
        try:
            env["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or "unknown"
            env["git_dirty"] = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                capture_output=True, text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    env.update(worker_env)
    env["nproc"] = os.cpu_count()
    env["cpu_model"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return env


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _check_digests(jobs: list[dict], golden: dict | None) -> tuple[int, list[str]]:
    if golden is None:
        return 0, []
    attempted, failures = 0, []
    for job in jobs:
        for name, digest in job["digests"].items():
            attempted += 1
            if golden.get(name) != digest:
                failures.append(f"{name}:digest")
    return attempted, failures


def measure(args) -> tuple[dict, list[dict], dict]:
    flags = ["--inject-fault"] if args.inject_fault else []
    jobs, setups = [], []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        job = run_worker(args.workload, args.seed, args.size, *flags,
                         *(["--traced"] if traced else []))
        job["traced"] = traced
        jobs.append(job)
        setups.append(job["setup_s"])
        # start another job only if one more of the average length still
        # ends within --seconds; a traced run always ends on a full pair
        elapsed = time.monotonic() - start
        if (elapsed * (len(jobs) + 1) / len(jobs) > args.seconds
                and (not args.trace or len(jobs) % 2 == 0)):
            break
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(args.workload, args.seed, args.size,
                                 "--setup-only", *flags)["setup_s"])
    untraced = [j for j in jobs if not j["traced"]]
    e2e = {
        "job_s": [j["job_s"] for j in untraced],
        "cpu_s": [j["cpu_s"] for j in untraced],
        "peak_rss_mb": [j["peak_rss_mb"] for j in untraced],
        "setup_s": setups,
    }
    layers = {}
    if args.trace:
        traced = [j for j in jobs if j["traced"]]
        per_job = [layer_metrics(j["summary"]) for j in traced]
        for name in SPAN_METRICS:
            layers[name] = statistics.median(m[name] for m in per_job)
        layers["cli.startup_s"] = startup_probe()
        for cmd in CLI_COMMANDS:
            walls = [w for j in untraced for w in j["cmd_s"].get(cmd, [])]
            layers[f"cli.cmd.{cmd}.s"] = statistics.median(walls) if walls else 0.0
        layers["trace.overhead_ratio"] = (
            statistics.median(j["job_s"] for j in traced)
            / statistics.median(e2e["job_s"]))
    return e2e, jobs, layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(PARAMS), default="full")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args()

    if not (SRC / "buckdens" / "__init__.py").is_file():
        print(f"error: no buckdens sources under {SRC}", file=sys.stderr)
        return 2
    try:
        e2e, jobs, layers = measure(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    golden = None
    if GOLDEN.is_file():
        golden = json.loads(GOLDEN.read_text()).get(args.size, {}).get(str(args.seed))
    digest_attempted, digest_failures = _check_digests(jobs, golden)
    attempted = sum(j["attempted"] for j in jobs) + digest_attempted
    failures = [f for j in jobs for f in j["failures"]] + digest_failures

    print(f"# buckdens benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print(f"# env: {json.dumps(_environment(jobs[0]['env']), sort_keys=True)}")
    print("# closed loop, one client: one job at a time, each in a fresh worker "
          f"process; {len(jobs)} jobs ({sum(j['traced'] for j in jobs)} traced)")
    for name, values in e2e.items():
        q1, q3 = _quartiles(values)
        print(f"{name} = {statistics.median(values)!r} {unit_of(name)}  "
              f"(median; q1 {q1:.6g}, q3 {q3:.6g}; n={len(values)})")
    print(f"fail_ratio = {len(failures) / attempted!r} ratio  "
          f"({len(failures)} failed of {attempted} attempted)")
    print(f"# digests: {digest_attempted} checked against golden.json "
          f"({'none recorded' if golden is None else 'recorded'} for this seed)")
    for f in failures[:20]:
        print(f"# failed: {f}")
    if args.trace:
        print("# no layer waits on another: one thread, no queue")
        for name, value in layers.items():
            print(f"{name} = {value!r} {unit_of(name)}")

    chosen = layers if args.trace else {n: statistics.median(v) for n, v in e2e.items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
