"""Newline-delimited JSON wire protocol of the query service.

Every message — request and response — is one JSON object on one line,
terminated by ``\\n``.  The format is deliberately boring: any language with
a socket and a JSON parser is a client.

Requests carry an ``op`` field::

    {"op": "hello", "role": "reader", "class": "interactive"}
    {"op": "between", "column": "ra", "low": 1000, "high": 50000}
    {"op": "batch", "column": "ra", "bounds": [[0, 10], [20, 30]]}
    {"op": "where", "predicates": {"ra": [0, 100], "dec": [5, 50]}}
    {"op": "insert", "values": [1, 2, 3]}
    {"op": "commit"}

Responses carry ``ok``; successful reads include the snapshot ``version``
they were answered at, so a client can verify its pinned view::

    {"ok": true, "sum": 123456, "count": 42, "version": 7}
    {"ok": false, "error": "protocol", "message": "..."}
"""

from __future__ import annotations

import json
import socket

from repro.errors import ProtocolError

#: Upper bound on one encoded message; a line longer than this is a protocol
#: violation, not a memory-exhaustion vector.
MAX_MESSAGE_BYTES = 16 * 1024 * 1024


#: One encoder for every message: ``json.dumps`` with non-default separators
#: builds a fresh ``JSONEncoder`` per call, a third of a small reply's cost.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_message(payload: dict) -> bytes:
    """Serialize ``payload`` to one newline-terminated JSON line."""
    line = _ENCODER.encode(payload).encode("utf-8") + b"\n"
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(line)} bytes exceeds the {MAX_MESSAGE_BYTES}-byte limit"
        )
    return line


def encode_read_reply(value_sum, count: int, version: int) -> bytes:
    """The reply to a ``between`` / ``equals`` read.

    Byte-for-byte what :func:`encode_message` makes of
    ``{"ok": True, "sum": ..., "count": ..., "version": ...}``; integer sums
    (the served hot path) are formatted without building the dict.
    """
    if type(value_sum) is int:
        return b'{"ok":true,"sum":%d,"count":%d,"version":%d}\n' % (value_sum, count, version)
    return encode_message({"ok": True, "sum": value_sum, "count": count, "version": version})


def send_message(sock: socket.socket, payload: dict) -> None:
    """Encode and send one message over ``sock``."""
    sock.sendall(encode_message(payload))


def read_message(stream) -> dict | None:
    """Read one message from a buffered binary ``stream``.

    Returns ``None`` on a clean EOF (peer closed the connection between
    messages).  Raises :class:`~repro.errors.ProtocolError` on oversized
    lines, truncated frames or malformed JSON.
    """
    line = stream.readline(MAX_MESSAGE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"incoming message exceeds the {MAX_MESSAGE_BYTES}-byte limit"
        )
    if not line.endswith(b"\n"):
        raise ProtocolError("truncated message (connection closed mid-line)")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON message: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"messages must be JSON objects, got {type(payload).__name__}"
        )
    return payload


def error_payload(code: str, message: str) -> dict:
    """The standard error-response shape."""
    return {"ok": False, "error": code, "message": message}
