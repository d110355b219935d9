"""The benchmark's server: a 2-worker, 2-replica pool behind the HTTP front end.

Run as ``python -m bench.server '<recipe json>'`` (the runner does this).
The recipe names a sample DTD, a :class:`~repro.fuzz.cases.DocumentSpec`,
an :class:`~repro.api.EngineConfig` dict and the warm-up queries.  The
script builds the pool through the public API (``repro serve`` cannot set
cache sizes), registers the document by recipe, answers every warm-up
query once, and only then prints one JSON ready line with the bound port.
Setup time is measured by the runner up to that line.

The server stops on SIGTERM or when its standard input reaches end of file,
so it cannot outlive a runner that dies.
"""

from __future__ import annotations

import json
import os
import sys
import threading


def main(argv) -> int:
    from repro.api.config import EngineConfig
    from repro.dtd.samples import paper_dtds
    from repro.fuzz.cases import DocumentSpec
    from repro.service import ProcessQueryService
    from repro.service.http import QueryHTTPServer

    recipe = json.loads(argv[0])
    dtd = paper_dtds()[recipe["dtd"]]
    warm = recipe["warm"]
    pool = ProcessQueryService(
        dtd,
        config=EngineConfig.from_dict(recipe["config"]),
        workers=2,
        replicas=2,
        warmup=warm,
    )
    try:
        pool.register_generated("doc", DocumentSpec(**recipe["document"]))
        for query in warm:
            pool.answer(query, "doc", include_nodes=False)
        server = QueryHTTPServer(pool, host="127.0.0.1", port=0)

        def stop_on_eof() -> None:
            sys.stdin.read()
            server.request_stop()

        threading.Thread(target=stop_on_eof, daemon=True).start()
        server.run(
            ready=lambda url: print(
                json.dumps({"ready": url, "port": server.port, "pid": os.getpid()}),
                flush=True,
            )
        )
    finally:
        pool.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
