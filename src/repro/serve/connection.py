"""Connection classes and the per-socket request handler.

A *connection class* is the serving layer's unit of service differentiation:
it carries the interactivity budget τ (model seconds) the paper's cost
models target per query, plus a fairness weight.  The scheduler turns τ
into admission tickets — each admitted query may spend at most an
allowance of indexing seconds derived from its class's τ and remaining
work-account balance — so one greedy client class cannot monopolise the
progressive construction of a hot column.

:class:`ClientConnection` speaks the JSON-line-and-frame wire protocol of
:mod:`repro.serve.protocol` over one accepted socket: a ``hello`` declares
the role (``reader`` or ``writer``) and class, readers then execute
range/point/batch/conjunctive queries against their pinned snapshot
versions, and the single writer appends through the engine's write path.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConcurrencyError, ProgressiveIndexError
from repro.serve.protocol import FRAME_MAGIC, FRAMES, OP_BETWEEN, OP_EQUALS, REQUEST_FRAME
from repro.serve.protocol import (
    FrameReader,
    FramingError,
    ProtocolError,
    decode_message,
    encode_message,
    encode_read_reply,
    error_payload,
)


@dataclass(frozen=True)
class ConnectionClass:
    """Service class of a connection.

    Parameters
    ----------
    name:
        Class identifier clients pass in their ``hello``.
    tau:
        Interactivity budget in model seconds: the per-query indexing
        allowance ceiling the scheduler admits for this class.  ``None``
        disables capping entirely (administrative connections).
    weight:
        Fairness weight: the share of a hot column's progressive work this
        class is entitled to relative to the other classes.
    """

    name: str
    tau: Optional[float]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.tau is not None and self.tau < 0:
            raise ProgressiveIndexError(f"tau must be >= 0, got {self.tau}")
        if self.weight <= 0:
            raise ProgressiveIndexError(f"weight must be > 0, got {self.weight}")


#: Default service classes: interactive analysts get a tight τ and most of
#: the fairness weight; bulk/batch clients get a 10x looser τ but a small
#: share of any contended column's indexing work; ``admin`` is uncapped.
DEFAULT_CLASSES = (
    ConnectionClass("interactive", tau=0.005, weight=4.0),
    ConnectionClass("batch", tau=0.05, weight=1.0),
    ConnectionClass("admin", tau=None, weight=1.0),
)


class ClientConnection:
    """Serves one accepted socket until ``bye`` or disconnect.

    The first message must be ``{"op": "hello", "role": ..., "class": ...}``;
    afterwards each request is dispatched by its ``op`` field.  Protocol or
    library errors are reported as ``{"ok": false, ...}`` responses and the
    connection keeps serving; a transport failure terminates it, and so does
    a stream that can no longer be cut into messages (after one error reply).
    """

    def __init__(self, server, sock: socket.socket, peer: str) -> None:
        self._server = server
        self._sock = sock
        self._messages = FrameReader(sock.recv)
        self._peer = peer
        self._role: Optional[str] = None
        self._columns: tuple = ()  # what frame column ids index, from the hello
        self._reader = None
        self._writer = None

    # ------------------------------------------------------------------
    def serve(self) -> None:
        """Request loop; returns when the peer says ``bye`` or hangs up."""
        read = self._messages.read
        try:
            while True:
                try:
                    request = read()
                    if request is not None and request[0] != FRAME_MAGIC:
                        request = decode_message(request)
                except ProtocolError as exc:
                    self._sock.sendall(encode_message(error_payload("protocol", str(exc))))
                    if isinstance(exc, FramingError):
                        return  # message boundaries are lost: replies would mispair
                    continue
                if request is None or not self._handle(request):
                    return
        except OSError:
            return
        finally:
            self._teardown()

    def _release_writer(self) -> None:
        if self._writer is not None:
            self._writer.release()
            self._writer = None

    def _teardown(self) -> None:
        self._release_writer()
        try:
            self._sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    def _handle(self, request) -> bool:
        """Answer one request: a decoded JSON object or a raw ``b1`` frame."""
        framed = type(request) is bytes
        op = None if framed else request.get("op")
        if op == "bye":
            # Free the writer slot before the ack: a client that re-attaches
            # as the writer on receiving it must find the slot free.
            self._release_writer()
            self._sock.sendall(encode_message({"ok": True, "op": "bye"}))
            return False
        try:
            if framed:
                response = self._framed_read(request)
            elif op == "hello":
                response = self._hello(request)
            elif self._role is None:
                raise ProtocolError("the first request must be 'hello'")
            elif op == "status":
                response = {"ok": True, "status": self._server.status()}
            elif op == "metrics":
                response = self._metrics(request)
            elif op == "trace":
                response = self._trace(request)
            elif self._role == "reader":
                response = self._reader_op(op, request)
            else:
                response = self._writer_op(op, request)
        except (ProtocolError, ProgressiveIndexError) as exc:
            response = error_payload(type(exc).__name__, str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            response = error_payload("bad-request", f"{type(exc).__name__}: {exc}")
        # Read replies arrive already encoded (see ``_read_reply``).
        self._sock.sendall(
            response if isinstance(response, bytes) else encode_message(response)
        )
        return True

    # ------------------------------------------------------------------
    def _hello(self, request: dict) -> dict:
        if self._role is not None:
            raise ProtocolError("connection already completed its hello")
        role = request.get("role", "reader")
        if role not in ("reader", "writer"):
            raise ProtocolError(f"unknown role {role!r}; use 'reader' or 'writer'")
        engine = self._server.engine
        if role == "reader":
            class_name = request.get("class", "interactive")
            self._reader = engine.reader(class_name)
            versions = self._reader.pinned_versions()
        else:
            try:
                self._writer = engine.acquire_writer()
            except ConcurrencyError as exc:
                return error_payload("writer-busy", str(exc))
            versions = engine.committed_versions()
        response = {"ok": True, "op": "hello", "role": role, "versions": versions}
        if role == "reader" and FRAMES in request.get("frames", ()):
            self._columns = tuple(engine.session.table.column_names)
            self._messages.frame_size = REQUEST_FRAME.size
            response.update(frames=FRAMES, columns=self._columns)
        self._role = role
        return response

    # ------------------------------------------------------------------
    def _metrics(self, request: dict) -> dict:
        """Registry snapshot, as structured JSON or Prometheus text.

        Available to both roles (like ``status``): telemetry is not a
        data-plane privilege.
        """
        from repro import obs

        snapshot = obs.metrics().snapshot()
        if request.get("format") == "prometheus":
            return {
                "ok": True,
                "format": "prometheus",
                "body": obs.render_prometheus(snapshot),
            }
        return {"ok": True, "metrics": snapshot}

    def _trace(self, request: dict) -> dict:
        """Recent finished spans from the tracer's ring buffer.

        ``limit`` bounds the reply; ``drain`` additionally clears the ring
        so a polling exporter sees each span once.
        """
        from repro import obs

        tracer = obs.tracer()
        if request.get("drain"):
            spans = tracer.drain()
            limit = request.get("limit")
            if limit is not None:
                spans = spans[-int(limit):]
        else:
            spans = tracer.recent(request.get("limit"))
        return {"ok": True, "enabled": tracer.enabled, "spans": spans}

    # ------------------------------------------------------------------
    def _framed_read(self, frame: bytes) -> bytes:
        _, op, column_id, low, high = REQUEST_FRAME.unpack(frame)
        if op == OP_EQUALS:
            high = low
        elif op != OP_BETWEEN:
            raise ProtocolError(f"unknown frame operation {op}")
        if column_id >= len(self._columns):
            raise ProtocolError(f"column id {column_id} is not in the hello's table")
        return self._read_reply(self._columns[column_id], low, high, framed=True)

    def _read_reply(self, column: str, low, high, framed: bool = False) -> bytes:
        reader = self._reader
        result = reader.between(column, low, high)
        version = reader.snapshot_version(column)
        return encode_read_reply(_native(result.value_sum), int(result.count), version, framed)

    def _reader_op(self, op: str, request: dict):
        reader = self._reader
        if op == "between":
            return self._read_reply(request["column"], request["low"], request["high"])
        if op == "equals":
            return self._read_reply(request["column"], request["value"], request["value"])
        if op == "batch":
            column = request["column"]
            bounds = request["bounds"]
            lows = [pair[0] for pair in bounds]
            highs = [pair[1] for pair in bounds]
            sums, counts = reader.search_many(column, lows, highs)
            return {
                "ok": True,
                "sums": [_native(value) for value in sums],
                "counts": [int(value) for value in counts],
                "version": reader.snapshot_version(column),
            }
        if op == "where":
            predicates = {
                name: (pair[0], pair[1])
                for name, pair in request["predicates"].items()
            }
            result = reader.where(predicates)
            return {
                "ok": True,
                "count": int(result.count),
                "sums": {
                    name: _native(value) for name, value in result.value_sums.items()
                },
                "versions": reader.pinned_versions(),
            }
        if op == "refresh":
            versions = reader.refresh()
            return {"ok": True, "op": "refresh", "versions": versions}
        raise ProtocolError(f"unknown reader operation {op!r}")

    # ------------------------------------------------------------------
    def _writer_op(self, op: str, request: dict) -> dict:
        writer = self._writer
        if op == "insert":
            rids = writer.insert(request["values"], request.get("column"))
            return {"ok": True, "op": "insert", "rows": int(len(rids))}
        if op == "delete":
            deleted = writer.delete(
                request["column"], request["low"], request.get("high")
            )
            return {"ok": True, "op": "delete", "rows": int(deleted)}
        if op == "update":
            updated = writer.update(
                request["column"], request["low"], request["high"], request["value"]
            )
            return {"ok": True, "op": "update", "rows": int(updated)}
        if op == "commit":
            versions = writer.commit()
            return {"ok": True, "op": "commit", "versions": versions}
        raise ProtocolError(f"unknown writer operation {op!r}")


def _native(value):
    """Coerce a NumPy scalar to its native Python equivalent for JSON."""
    return value.item() if hasattr(value, "item") else value
