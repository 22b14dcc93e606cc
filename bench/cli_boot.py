"""Traced stand-in for `python -m declift.cli`.

Usage: python cli_boot.py SUMMARY.json SUBCOMMAND [ARGS...]

Installs the tracer's wrappers, runs `declift.cli.main(argv)`, writes the
trace summary to SUMMARY.json and exits with the CLI's exit code.
"""

import json
import sys

import declift.cli

from tracer import Tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        code = declift.cli.main(argv)
    finally:
        tracer.restore()
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
