"""Start ``repro-serve`` for the benchmark, optionally traced.

Usage::

    python3 perfbench/serve.py [--trace-out SPANS.json] -- <repro-serve args>

Calls :func:`repro.service.server.main` in this process.  With
``--trace-out`` it first wraps the public functions of every layer,
server side included (queue, workers, trace store, HTTP handler), and
writes the spans there when the server stops.  SIGINT and SIGTERM stop
the server cleanly.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pb import common  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    try:
        common.import_program()
    except common.MissingProgram as exc:
        print(f"perfbench serve: {exc}", file=sys.stderr)
        return 2
    from repro.service import server

    tracer = None
    if args.trace_out:
        from pb import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, server=True)
    # a process started in the background inherits SIGINT ignored, and
    # Python then installs no KeyboardInterrupt handler: install it here
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _interrupt)
    code = server.main(serve_args)
    if tracer is not None:
        tracer.uninstall()
        Path(args.trace_out).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
