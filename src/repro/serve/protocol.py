"""Wire protocol of the query service: JSON lines, plus one binary frame.

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

The two scalar reads also have a fixed-width frame, ``b1`` (at their size
the JSON codec costs more than the read).  A reader offers ``"frames":
["b1"]`` in its hello; a server that knows it echoes ``"frames": "b1"`` plus
``"columns"``, the ordered table the column ids index.  No offer or no echo
leaves the connection on JSON lines; a writer never gets frames::

    request <BBHqq  magic 0xB1, op (1 between, 2 equals), column id, low, high
    reply   <BBqqq  magic 0xB1, tag 1, sum, count, version

``0xB1`` is a UTF-8 continuation byte, never the first byte of a JSON line:
the formats are told apart per message, in either direction, and interleave.
A read is framed only when both bounds are Python ints within int64 and the
column is in the table, its reply only when the sum is one too; every other
message and every error reply is a JSON line.  Replies keep request order.
"""

from __future__ import annotations

import json
import struct

from repro.errors import ProtocolError

#: Upper bound on one encoded message; a line longer than this is a protocol
#: violation, not a memory-exhaustion vector.
MAX_MESSAGE_BYTES = 16 * 1024 * 1024

FRAMES = "b1"
FRAME_MAGIC = 0xB1
REQUEST_FRAME = struct.Struct("<BBHqq")
REPLY_FRAME = struct.Struct("<BBqqq")
OP_BETWEEN, OP_EQUALS = 1, 2
TAG_READ = 1
_RECV_BYTES = 1 << 16
_OVERSIZED = f"incoming message exceeds the {MAX_MESSAGE_BYTES}-byte limit"


class FramingError(ProtocolError):
    """The byte stream cannot be cut into messages any more; close it."""


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


def encode_read_reply(value_sum, count: int, version: int, framed: bool = False) -> bytes:
    """The reply to a ``between`` / ``equals`` read.

    As a JSON line, byte-for-byte what :func:`encode_message` makes of
    ``{"ok": True, "sum": ..., "count": ..., "version": ...}``; integer sums
    (the served hot path) are formatted without building the dict, and go
    out as a reply frame when the request was ``framed`` and they fit int64.
    """
    if type(value_sum) is int:
        if framed:
            try:
                return REPLY_FRAME.pack(FRAME_MAGIC, TAG_READ, value_sum, count, version)
            except struct.error:
                pass
        return b'{"ok":true,"sum":%d,"count":%d,"version":%d}\n' % (value_sum, count, version)
    return encode_message({"ok": True, "sum": value_sum, "count": count, "version": version})


def decode_message(line: bytes) -> dict:
    """The JSON object on one complete line."""
    try:
        payload = json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ProtocolError(f"malformed JSON message: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"messages must be JSON objects, got {type(payload).__name__}")
    return payload


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
        raise FramingError(_OVERSIZED)
    if not line.endswith(b"\n"):
        raise FramingError("truncated message (connection closed mid-line)")
    return decode_message(line)


class FrameReader:
    """Cuts what ``recv`` returns into whole messages: lines, and frames of
    ``frame_size`` bytes once the hello has negotiated them."""

    def __init__(self, recv) -> None:
        self._recv = recv
        self._rest = b""
        self.frame_size: int | None = None

    def read(self) -> bytes | None:
        """The next frame or line (newline included); ``None`` at EOF between two."""
        data = self._rest or self._recv(_RECV_BYTES)
        if not data:
            return None
        size = self.frame_size
        if data[0] == FRAME_MAGIC and size is not None:
            while len(data) < size:
                more = self._recv(_RECV_BYTES)
                if not more:
                    raise FramingError("truncated frame (connection closed mid-frame)")
                data += more
            self._rest = data[size:]
            return data[:size]
        if data[0] >= 0x80:
            raise FramingError(f"no frame 0x{data[0]:02x} was negotiated on this connection")
        start = 0
        while (cut := data.find(b"\n", start) + 1) == 0 and len(data) <= MAX_MESSAGE_BYTES:
            start = len(data)
            more = self._recv(max(_RECV_BYTES, start))  # larger asks: fewer copies
            if not more:
                raise FramingError("truncated message (connection closed mid-line)")
            data += more
        if (cut or len(data)) > MAX_MESSAGE_BYTES:
            raise FramingError(_OVERSIZED)
        self._rest = data[cut:]
        return data[:cut]


def error_payload(code: str, message: str) -> dict:
    """The standard error-response shape."""
    return {"ok": False, "error": code, "message": message}
