"""Write golden.json: the sha256 of every tower JSON, report JSON and CLI
stdout that seed 0 produces, for each workload size.

Usage (from the repository root): python3 perfbench/record_golden.py

Run it only on a commit whose outputs are trusted; ``run.py`` counts every
later mismatch as a failed operation.
"""

import json

from run import GOLDEN, run_worker
from workloads import PARAMS, WORKLOADS

SEED = 0


def main() -> int:
    golden = {}
    for size in PARAMS:
        digests = golden.setdefault(size, {}).setdefault(str(SEED), {})
        for workload in WORKLOADS:
            result = run_worker(workload, SEED, size)
            if result["failures"]:
                raise SystemExit(f"{workload} ({size}) failed: {result['failures']}")
            digests.update(result["digests"])
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
