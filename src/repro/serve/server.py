"""The threaded socket front end of the concurrent query service.

:class:`QueryServer` wraps one :class:`~repro.engine.shared.SharedEngine`
(usually built from an open :class:`~repro.persist.database.Database`) and
serves the JSON-line-and-frame protocol of :mod:`repro.serve.protocol`
over a Unix-domain or TCP socket.  Each accepted connection runs in its own
thread; correctness does not depend on the thread count because all index
mutation is serialized through the engine's
:class:`~repro.serve.scheduler.ProgressiveScheduler` work lanes and all
delta-store writes go through the engine-wide write gate.

Example
-------
>>> import numpy as np
>>> from repro import Column, IndexingSession
>>> from repro.serve import QueryServer, ServiceClient
>>> session = IndexingSession(Column(np.arange(10_000), name="ra"))
>>> _ = session.create_index("ra", method="PQ", fixed_delta=0.25)
>>> with QueryServer(session=session) as server:
...     with ServiceClient(server.endpoint) as client:
...         client.between("ra", 10, 19)["count"]
10
"""

from __future__ import annotations

import os
import socket
import sys
import tempfile
import threading
from typing import Optional, Tuple, Union

from repro.engine.shared import SharedEngine
from repro.errors import ConcurrencyError
from repro.serve.connection import ClientConnection

Address = Union[str, Tuple[str, int]]


class QueryServer:
    """Threaded JSON-line query server over one shared engine.

    Parameters
    ----------
    database:
        An open :class:`~repro.persist.database.Database` to serve (writes
        go through its WAL).  Mutually exclusive with ``session``/``engine``.
    session:
        An :class:`~repro.engine.session.IndexingSession` (or bare
        table/column data) to serve in memory, without durability.
    engine:
        A pre-built :class:`~repro.engine.shared.SharedEngine` — use this to
        inject a custom scheduler or connection classes.
    address:
        Where to listen: a filesystem path (Unix-domain socket) or a
        ``(host, port)`` tuple (TCP; port 0 picks a free port).  Defaults to
        a fresh Unix socket path in a temporary directory.
    switch_interval:
        Python thread switch interval installed while the server runs.  The
        default interpreter quantum (5 ms) lets one long request convoy
        every other connection on a saturated core; 0.5 ms bounds the
        per-request jitter at negligible switching cost.  ``None`` leaves
        the interpreter setting alone.
    """

    def __init__(
        self,
        database=None,
        session=None,
        engine: Optional[SharedEngine] = None,
        address: Optional[Address] = None,
        switch_interval: Optional[float] = 0.0005,
    ) -> None:
        provided = [value for value in (database, session, engine) if value is not None]
        if len(provided) != 1:
            raise ConcurrencyError(
                "provide exactly one of database=, session= or engine="
            )
        if engine is None:
            if database is not None:
                engine = SharedEngine.for_database(database)
            else:
                engine = SharedEngine(session)
        self.engine = engine
        self._address = address
        self._switch_interval = switch_interval
        self._prev_switch_interval: Optional[float] = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connection_threads: list[threading.Thread] = []
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        self._running = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def endpoint(self) -> Address:
        """The bound address clients connect to (valid after :meth:`start`)."""
        if self._listener is None:
            raise ConcurrencyError("the server is not running; call start() first")
        if self._listener.family == socket.AF_UNIX:
            return self._listener.getsockname()
        host, port = self._listener.getsockname()[:2]
        return (host, port)

    @property
    def running(self) -> bool:
        """Whether the accept loop is active."""
        return self._running

    # ------------------------------------------------------------------
    def start(self) -> "QueryServer":
        """Bind, listen and start accepting connections in the background."""
        if self._running:
            raise ConcurrencyError("the server is already running")
        address = self._address
        if address is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
            address = os.path.join(self._tempdir.name, "service.sock")
        if isinstance(address, str):
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            if os.path.exists(address):
                os.unlink(address)
            listener.bind(address)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(tuple(address))
        listener.listen(128)
        self._listener = listener
        if self._switch_interval is not None:
            self._prev_switch_interval = sys.getswitchinterval()
            sys.setswitchinterval(self._switch_interval)
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while self._running:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            if sock.family == socket.AF_INET:
                # Batched request/response round trips die without NODELAY.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = ClientConnection(self, sock, str(sock.getpeername()))
            thread = threading.Thread(
                target=connection.serve, name="repro-serve-conn", daemon=True
            )
            with self._lock:
                self._connection_threads = [
                    t for t in self._connection_threads if t.is_alive()
                ]
                self._connection_threads.append(thread)
            thread.start()

    # ------------------------------------------------------------------
    def status(self) -> dict:
        """JSON-safe service status (engine + scheduler counters)."""
        return self.engine.status()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop accepting, close the listener and join connection threads."""
        if not self._running:
            return
        self._running = False
        try:
            # close() alone leaves the accept thread parked in accept();
            # shutting the listener down first wakes it with an OSError.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout)
        with self._lock:
            threads = list(self._connection_threads)
        for thread in threads:
            thread.join(timeout=timeout)
        if self._prev_switch_interval is not None:
            sys.setswitchinterval(self._prev_switch_interval)
            self._prev_switch_interval = None
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None
        self._listener = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        where = "stopped"
        if self._running and self._listener is not None:
            where = str(self.endpoint)
        return f"QueryServer({where})"
