"""Run the ``margin-gate`` command in a fresh process, as its console script does.

    python3 perfbench/cli_child.py [--trace-out FILE OP] ARGS...

ARGS go to ``margingate.cli.main`` unchanged and the exit code is its
return value. With ``--trace-out``, the benchmark's span wrappers are
installed after the import (which is itself recorded as the ``cli.import``
span) and the spans of op OP are written to FILE when ``main`` returns.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, op, argv = Path(argv[1]), int(argv[2]), argv[3:]
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import margingate.cli as cli

    end = time.perf_counter()
    if trace_out is None:
        return cli.main(argv)

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(op, root=False)
    tracer.add_span("cli.import", start, end, -1, op)
    try:
        return cli.main(argv)
    finally:
        trace_out.write_text(json.dumps(tracer.to_obj()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
