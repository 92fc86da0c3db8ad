"""Run one fusedhecke CLI command with the benchmark's span wrappers.

    python cli_child.py OUT_PREFIX REQUEST_ID CLI_ARG...

Installs the wrappers, calls ``fusedhecke.cli.main`` with the CLI arguments,
writes the spans to OUT_PREFIX.bin and OUT_PREFIX.json, and exits with the
command's status.  The library is found through PYTHONPATH.
"""

import sys
from pathlib import Path

import fusedhecke.cli

import tracing


def main() -> int:
    prefix, request, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("request", request):
            code = fusedhecke.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(prefix)
    return code


if __name__ == "__main__":
    sys.exit(main())
