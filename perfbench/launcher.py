"""Start the seed-query server for the ``serve`` workload.

::

    python3 perfbench/launcher.py --workdir D --engine-seed N [--trace 1]

Loads the graph and warm-starts a single-process
:class:`~repro.serve.SeedQueryEngine` from the index ``setup`` wrote in
``D/index``, serves it with :class:`~repro.serve.SeedQueryServer` on a
free local port, and writes that port to ``D/port``.  On SIGTERM the
server drains and the launcher writes ``D/server-<pid>.json``: its peak
RSS and, with ``--trace 1``, the spans of the same outside-in wrappers
the workload processes install; here they include the server's request
dispatch and response rendering, tagged with the client's
``X-Trace-Id``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
from pathlib import Path

import spec
from tracer import Tracer
from worker import environment, load_graph, peak_rss_mb

from repro.serve import SeedQueryEngine, SeedQueryServer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--engine-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workdir = Path(args.workdir)
    tracer = Tracer("server") if args.trace else None
    if tracer is not None:
        tracer.install()

    graph = load_graph(workdir / "graph-0.npz")
    engine = SeedQueryEngine(
        graph, spec.SERVE_MODEL, seed=args.engine_seed, index_dir=workdir / "index"
    )
    server = SeedQueryServer(engine, port=0, own_engine=True)

    async def serve() -> None:
        await server.start()
        port_file = workdir / "port"
        scratch = workdir / f"port.{os.getpid()}"
        scratch.write_text(str(server.port))
        os.replace(scratch, port_file)
        await server.serve_forever()

    asyncio.run(serve())
    result = {
        "peak_rss_mb": peak_rss_mb(),
        "environment": environment(),
        "cache": server.cache.stats(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.dump()
    (workdir / f"server-{os.getpid()}.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
