"""Run one ``hopfg`` command under the tracer and save what it recorded.

Usage: python cli_traced.py STATE_PATH ARGS...

The parent sets BENCH_SPAWN_TIME (its ``time.time()`` just before the
spawn) and BENCH_OP (the operation id).  ``startup_ms`` is the time from
the spawn until ``hopfg.cli`` is imported, before the tracer is
installed, so the tracer's own set-up is not counted in it.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import hopfg.cli

    ready = time.time()
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = int(os.environ["BENCH_OP"])
    try:
        code = hopfg.cli.main(sys.argv[2:])
    finally:
        tracer.op = None
        state = tracer.state()
        state["startup_ms"] = (ready - float(os.environ["BENCH_SPAWN_TIME"])) * 1000.0
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(state, fh)
    sys.exit(code)
