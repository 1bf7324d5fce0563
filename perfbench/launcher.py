"""Run the phishdefense CLI with the benchmark's tracing wrappers installed.

    python3 perfbench/launcher.py <trace-out.npz> serve --model m.pdm --bind HOST:PORT

Spans are written to <trace-out.npz> once the command returns, which for
`serve` is when the server is stopped with SIGINT.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from phishdefense import cli

    try:
        return cli.main(argv)
    finally:
        tracer.save(out)


if __name__ == "__main__":
    sys.exit(main())
