"""Run the buckdens CLI with the benchmark's spans installed.

Usage: python3 perfbench/traced_cli.py SUMMARY_FILE CLI_ARGS...

Behaves as ``python -m buckdens.cli CLI_ARGS...`` (same output, same exit
code) and writes the per-layer summary of the spans to SUMMARY_FILE.
"""

import json
import sys

import layers


def main() -> int:
    summary_file, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.install()
    from buckdens.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        with open(summary_file, "w") as fh:
            json.dump(layers.summarize(tracer.spans), fh)


if __name__ == "__main__":
    raise SystemExit(main())
