"""A thin synchronous client for the query service.

:class:`ServiceClient` is what the tests, the benchmark and the README
quickstart use; it is also executable documentation of the wire protocol —
every method is one request and one response (a JSON line or a ``b1`` frame).
"""

from __future__ import annotations

import socket
import struct
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.errors import ConnectionLostError, ProtocolError
from repro.serve.protocol import FRAME_MAGIC, FRAMES, OP_BETWEEN, OP_EQUALS, TAG_READ
from repro.serve.protocol import REPLY_FRAME, REQUEST_FRAME
from repro.serve.protocol import FrameReader, FramingError, decode_message, encode_message

Address = Union[str, Tuple[str, int]]


class ServiceError(ProtocolError):
    """An ``{"ok": false}`` response from the service.

    Carries the server-side error ``code`` (exception class name or
    protocol error category) alongside the message.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


class ServiceClient:
    """One connection to a :class:`~repro.serve.server.QueryServer`.

    Parameters
    ----------
    address:
        The server's endpoint: a Unix-socket path or ``(host, port)``.
    role:
        ``"reader"`` (pinned-snapshot queries) or ``"writer"`` (the single
        write connection).
    connection_class:
        Service class for readers (``"interactive"``, ``"batch"``, ...).
    """

    def __init__(
        self,
        address: Address,
        role: str = "reader",
        connection_class: str = "interactive",
        timeout: Optional[float] = 30.0,
    ) -> None:
        if isinstance(address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(address)
        else:
            host, port = address
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if timeout is not None:
            sock.settimeout(timeout)
        self._sock = sock
        self._messages = FrameReader(sock.recv)
        self.role = role
        #: Snapshot versions pinned by the hello (readers) / last commit.
        self.versions: Dict[str, int] = {}
        #: Frame ids of the server's columns; empty on a JSON-only connection.
        self._column_ids: Dict[str, int] = {}
        try:
            hello = self.request(
                {"op": "hello", "role": role, "class": connection_class, "frames": [FRAMES]}
            )
        except BaseException:  # e.g. writer-busy: nobody else will close it
            sock.close()
            raise
        self.versions = hello.get("versions", {})
        if hello.get("frames") == FRAMES:
            self._messages.frame_size = REPLY_FRAME.size
            self._column_ids = {name: i for i, name in enumerate(hello.get("columns", ()))}

    # ------------------------------------------------------------------
    def request(self, payload: dict) -> dict:
        """Send one request and return the (``ok``) response payload.

        Raises :class:`ServiceError` on an error response; without a complete
        response, ``ConnectionLostError`` — as does every call after that one.
        """
        return self._exchange(encode_message(payload))

    def _exchange(self, request: bytes) -> dict:
        try:
            self._sock.sendall(request)
            message = self._messages.read()
            if message is None:
                raise FramingError("server closed the connection mid-request")
        except BaseException as exc:
            # The reply may still arrive and would answer the next request:
            # close, so that every later call ends up here too (EBADF).
            self._sock.close()
            if isinstance(exc, (OSError, FramingError)):
                raise ConnectionLostError(f"no complete response: {exc}") from exc
            raise
        if message[0] == FRAME_MAGIC:
            _, tag, value_sum, count, version = REPLY_FRAME.unpack(message)
            if tag != TAG_READ:
                raise ProtocolError(f"unknown reply frame tag {tag}")
            return {"ok": True, "sum": value_sum, "count": count, "version": version}
        response = decode_message(message)
        if not response.get("ok", False):
            raise ServiceError(
                str(response.get("error", "unknown")),
                str(response.get("message", "")),
            )
        return response

    def _read(self, op: int, column: str, low, high) -> Optional[dict]:
        """The framed read, or ``None`` when this one has to travel as JSON."""
        column_id = self._column_ids.get(column)
        if column_id is None or type(low) is not int or type(high) is not int:
            return None
        try:
            frame = REQUEST_FRAME.pack(FRAME_MAGIC, op, column_id, low, high)
        except struct.error:  # a bound past int64
            return None
        return self._exchange(frame)

    # ------------------------------------------------------------------
    # Reader operations
    # ------------------------------------------------------------------
    def between(self, column: str, low, high) -> dict:
        """Range aggregate at this reader's pinned snapshot version."""
        return self._read(OP_BETWEEN, column, low, high) or self.request(
            {"op": "between", "column": column, "low": low, "high": high}
        )

    def equals(self, column: str, value) -> dict:
        """Point aggregate at the pinned snapshot version."""
        return self._read(OP_EQUALS, column, value, value) or self.request(
            {"op": "equals", "column": column, "value": value}
        )

    def batch(self, column: str, bounds: Sequence[Sequence]) -> dict:
        """Vectorized batch of ``[low, high]`` ranges at the pinned version."""
        return self.request(
            {"op": "batch", "column": column, "bounds": [list(b) for b in bounds]}
        )

    def where(self, predicates: Dict[str, Sequence]) -> dict:
        """Multi-column conjunction at the pinned versions."""
        return self.request(
            {
                "op": "where",
                "predicates": {name: list(pair) for name, pair in predicates.items()},
            }
        )

    def refresh(self) -> Dict[str, int]:
        """Re-pin at the latest committed versions; returns them."""
        response = self.request({"op": "refresh"})
        self.versions = response["versions"]
        return dict(self.versions)

    def status(self) -> dict:
        """Service status: engine, per-index and scheduler counters."""
        return self.request({"op": "status"})["status"]

    def metrics(self, format: str = "json"):
        """Server-side metrics registry snapshot.

        ``format="json"`` returns the structured snapshot dict;
        ``format="prometheus"`` returns the text exposition body.
        """
        response = self.request({"op": "metrics", "format": format})
        if format == "prometheus":
            return response["body"]
        return response["metrics"]

    def trace(self, limit: Optional[int] = None, drain: bool = False) -> dict:
        """Recent trace spans from the server's ring buffer."""
        payload: dict = {"op": "trace", "drain": bool(drain)}
        if limit is not None:
            payload["limit"] = int(limit)
        return self.request(payload)

    # ------------------------------------------------------------------
    # Writer operations
    # ------------------------------------------------------------------
    def insert(self, values, column: Optional[str] = None) -> int:
        """Insert rows; returns the number of rows inserted."""
        payload = {"op": "insert", "values": values}
        if column is not None:
            payload["column"] = column
        return int(self.request(payload)["rows"])

    def delete(self, column: str, low, high=None) -> int:
        """Delete rows in ``[low, high]`` (point delete when ``high`` omitted)."""
        payload = {"op": "delete", "column": column, "low": low}
        if high is not None:
            payload["high"] = high
        return int(self.request(payload)["rows"])

    def update(self, column: str, low, high, value) -> int:
        """Set ``column`` to ``value`` for rows in ``[low, high]``."""
        return int(
            self.request(
                {"op": "update", "column": column, "low": low, "high": high, "value": value}
            )["rows"]
        )

    def commit(self) -> Dict[str, int]:
        """Commit pending writes; returns the new committed versions."""
        response = self.request({"op": "commit"})
        self.versions = response["versions"]
        return dict(self.versions)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Say ``bye`` (best effort) and close the socket."""
        try:
            self._exchange(encode_message({"op": "bye"}))
        except ProtocolError:
            pass
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
