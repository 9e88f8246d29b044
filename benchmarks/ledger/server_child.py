"""The served program of ``serve_converged``: a QueryServer in its own process.

Usage: ``server_child.py <data.npy> <socket-path> <budget-fraction> <tcp:0|1>``

The load generator (``workloads.py``) drives it over the socket like any
client, and steers it over stdin/stdout, one line each way:

``reset``       drop and re-create the index (a fresh cold round)
``converged``   ``1`` once the index reports CONVERGED, else ``0``
``stats``       one JSON line: scheduler counters and index status
``tracing on``  / ``tracing off``: toggle the program's own tracer
``quit``        print ``{"rss_mb": ...}`` and exit
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import use_repo_sources  # noqa: E402

use_repo_sources()

from repro import IndexingSession, QueryServer, SharedEngine, Table, obs  # noqa: E402


def main() -> int:
    data_path, socket_path, budget_fraction, with_tcp = sys.argv[1:5]
    session = IndexingSession(Table({"ra": np.load(data_path)}))
    engine = SharedEngine(session)

    def fresh_index() -> None:
        with engine.gate.write():
            session.drop_index("ra")
            gc.collect()  # a dead index's arrays go now, not whenever (see workloads.py)
            session.create_index("ra", method="PQ", budget_fraction=float(budget_fraction))

    fresh_index()
    servers = [QueryServer(engine=engine, address=socket_path).start()]
    ready = {"ready": True}
    if with_tcp == "1":
        servers.append(QueryServer(engine=engine, address=("127.0.0.1", 0)).start())
        ready["tcp_port"] = servers[1].endpoint[1]
    print(json.dumps(ready), flush=True)

    for line in sys.stdin:
        command = line.strip()
        if command == "reset":
            fresh_index()
            reply = "ok"
        elif command == "converged":
            reply = "1" if session.index_for("ra").converged else "0"
        elif command == "stats":
            status = engine.status()
            status["throttled"] = sum(
                series["value"] for series in obs.metrics().snapshot()["series"]
                if series["name"] == "scheduler.throttled"
            )
            reply = json.dumps(status)
        elif command.startswith("tracing "):
            obs.configure(tracing=command.endswith(" on"))
            reply = "ok"
        elif command == "quit":
            break
        else:
            reply = "unknown"
        print(reply, flush=True)

    # No server.stop(): it waits out a five-second join on the accept thread,
    # and the serving threads are daemons that end with the process anyway.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"rss_mb": peak}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
