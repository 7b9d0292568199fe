"""``mfbsde`` command line under the tracer, for the traced CLI workload.

Usage: cli_child.py SPANS_OUT <mfbsde arguments...>

Runs ``mfbsde.cli.main`` with every layer wrapped, then writes the spans
to SPANS_OUT as JSON lines. The exit code is the command's own.
"""
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]

import mfbsde.cli  # noqa: E402

from tracing import Tracer, write_spans  # noqa: E402


def main(argv: list[str]) -> int:
    spans_out, args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.installed():
        code = tracer.call("cli.main", mfbsde.cli.main, args)
    write_spans(tracer.spans, spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
