"""``python -m verlab.cli`` with the benchmark's layer spans installed.

    python3 perfbench/traced_cli.py OUT.json <verlab arguments...>

Runs the CLI exactly as ``python -m verlab.cli`` would (same exit code,
output and tracebacks) and, however it ends, writes this process's spans
and their aggregate to OUT.json.
"""
import sys

import verlab.cli

import tracing


def main() -> None:
    out = sys.argv.pop(1)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        verlab.cli.main(prog_name="python -m verlab.cli")
    finally:
        tracer.write(out, {"aggregate": tracer.aggregate()})


if __name__ == "__main__":
    main()
