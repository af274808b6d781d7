"""Server process of the ``serve_mixed`` workload.

Starts a ``ReproServer`` (fp64, N=15, serial) on a free local port and
prints ``{"port": …}``.  It then reads commands from standard input:

* ``trace on``  — clear the span list and start recording;
* ``trace off`` — stop recording and print ``{"summary": …}``;
* end of input — close the server and exit.

With ``--trace 1`` the :mod:`perfbench.spans` wrappers are installed before
the server starts (disabled until ``trace on``), so the served path is the
library's own with one attribute test per wrapped call.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-bytes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.spans import Tracer, summarize
    from repro.config import Ozaki2Config
    from repro.service.server import ReproServer

    tracer = Tracer()
    if args.trace:
        tracer.install()
    server = ReproServer(
        config=Ozaki2Config.for_dgemm(num_moduli=15), cache_bytes=args.cache_bytes
    ).start()
    print(json.dumps({"port": server.port}), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                tracer.clear()
                tracer.enabled = True
                print(json.dumps({"ok": True}), flush=True)
            elif command == "trace off":
                tracer.enabled = False
                print(json.dumps({"summary": summarize(tracer.spans),
                                  "missing": tracer.missing}), flush=True)
    finally:
        server.close()
        tracer.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
