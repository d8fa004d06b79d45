"""One job of one workload in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED SIZE [--traced] [--setup-only]
       [--inject-fault]

Set-up (imports, inputs, prerequisite towers) ends at the first timed call,
whose ``time.monotonic()`` is reported as ``ready_at`` so that ``run.py`` can
take set-up time from its own spawn time.  The last stdout line is a JSON
object with the job's wall and CPU time, peak RSS, operations and digests.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _environment() -> dict:
    import importlib.util

    import numpy
    import sympy
    from buckdens import kernels

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": kernels.active_backend(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("size")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(workloads.SRC))
    work_root = workloads.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        # installed before set-up binds any name; the CLI workload traces
        # inside each command's own process instead
        tracer = None
        if args.traced and args.workload != "cli":
            tracer = layers.install()
        inputs = workloads.make_inputs(args.workload, args.seed, args.size)
        job = workloads.setup(args.workload, inputs, Path(workdir), args.inject_fault)
        if tracer is not None:
            tracer.spans.clear()  # keep only the job's spans
        ready_at = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at}))
            return 0

        ledger = workloads.Ledger()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        extra = job(ledger, args.traced)
        job_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0

        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        summary = extra.get("summary")
        if tracer is not None:
            summary = layers.summarize(tracer.spans)
        print(json.dumps({
            "ready_at": ready_at,
            "job_s": job_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            "attempted": ledger.attempted,
            "failures": ledger.failures,
            "digests": ledger.digests,
            "cmd_s": extra.get("cmd_s", {}),
            "summary": summary,
            "env": _environment(),
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
