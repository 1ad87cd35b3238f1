"""Traced stand-in for ``python -m setfam.cli``.

    PERFBENCH_SPANS=spans.json python cli_shim.py ARGS...

Runs ``setfam.cli.main(ARGS)`` exactly as ``-m setfam.cli`` would, with
spans around the process, the import of ``setfam.cli``, ``main`` and the
layers below it, and writes them to the file named by PERFBENCH_SPANS.
"""

import time

START_NS = time.monotonic_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    try:
        with tracer.span("cli.process", start=START_NS):
            with tracer.span("cli.import"):
                import setfam.cli
            with tracer.installed(), tracer.span("cli.main"):
                return setfam.cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)


if __name__ == "__main__":
    sys.exit(main())
