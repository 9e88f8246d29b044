"""The wire: JSON lines and the negotiated ``b1`` frame, under hostile input.

Three kinds of peer talk to the real :class:`QueryServer` here: the
:class:`ServiceClient` (which offers frames), a raw-socket JSON-only client
that reads through ``makefile`` exactly as clients written against the old
protocol do, and a raw socket that sends whatever bytes a test wants.  Stub
servers play the other side for the client's own decisions.  Every socket
carries a 2 s timeout: a violation must end in a typed error or a closed
socket, never a hang.
"""

from __future__ import annotations

import contextlib
import io
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.policy import FixedDelta
from repro.engine.session import IndexingSession
from repro.errors import ConnectionLostError, ProtocolError
from repro.serve import connection as serve_connection
from repro.serve import protocol
from repro.serve.client import ServiceClient, ServiceError
from repro.serve.protocol import (
    FRAME_MAGIC,
    OP_BETWEEN,
    OP_EQUALS,
    REPLY_FRAME,
    REQUEST_FRAME,
    TAG_READ,
    FrameReader,
    FramingError,
    encode_message,
    read_message,
)
from repro.serve.server import QueryServer
from repro.storage.table import Table

ROWS = 4_000
DOMAIN = 1_000_000
TIMEOUT = 2.0
BIG = 1 << 62  # four of these sum past int64: the engine's int64 sums wrap


def _table(seed: int = 3) -> Table:
    rng = np.random.default_rng(seed)
    return Table({
        "ra": rng.integers(0, DOMAIN, size=ROWS, dtype=np.int64),
        "flux": rng.random(ROWS) * 100.0,
        "big": np.array([BIG] * 4 + [5, 6, 7] + list(range(100, 93 + ROWS)), dtype=np.int64),
    })


@contextlib.contextmanager
def _serving(tmp_path, method: str = "PQ"):
    session = IndexingSession(_table())
    session.create_index("ra", method=method, budget=FixedDelta(0.25))
    server = QueryServer(session=session, address=str(tmp_path / "svc.sock")).start()
    try:
        yield server
    finally:
        server.stop()


def _brute(values: np.ndarray, low, high):
    mask = (values >= low) & (values <= high)
    return values[mask].sum().item(), int(mask.sum())


def _frame(op: int, column_id: int, low: int, high: int) -> bytes:
    return REQUEST_FRAME.pack(FRAME_MAGIC, op, column_id, low, high)


class RawPeer:
    """A raw socket with a hello helper; reads replies as the old clients do."""

    def __init__(self, address: str, frames: bool, role: str = "reader") -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(TIMEOUT)
        self.sock.connect(address)
        self.file = self.sock.makefile("rb")
        hello = {"op": "hello", "role": role}
        if frames:
            hello["frames"] = ["b1"]
        self.hello = self.ask(hello)

    def ask(self, payload: dict) -> dict:
        self.sock.sendall(encode_message(payload))
        return json.loads(self.file.readline())

    def ask_frame(self, frame: bytes):
        """One frame out; the reply as a dict, whichever format it came in."""
        self.sock.sendall(frame)
        return self.reply()

    def reply(self):
        head = self.file.peek(1)[:1]
        if head and head[0] == FRAME_MAGIC:
            _, tag, value_sum, count, version = REPLY_FRAME.unpack(self.file.read(REPLY_FRAME.size))
            assert tag == TAG_READ
            return {"ok": True, "sum": value_sum, "count": count, "version": version, "framed": True}
        line = self.file.readline()
        return json.loads(line) if line else None

    def closed(self) -> bool:
        """True when the server has closed: EOF or a reset, never a timeout."""
        try:
            return self.file.read(1) == b""
        except ConnectionError:
            return True

    def close(self) -> None:
        self.file.close()
        self.sock.close()


@contextlib.contextmanager
def _stub_server(tmp_path, script):
    """Serve one connection with ``script(sock, lines)`` on a thread."""
    path = str(tmp_path / "stub.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)
    listener.settimeout(TIMEOUT)
    errors = []

    def run():
        try:
            sock, _ = listener.accept()
            sock.settimeout(TIMEOUT)
            with sock, sock.makefile("rb") as lines:
                script(sock, lines)
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield path
    finally:
        thread.join(TIMEOUT)
        listener.close()
        assert not thread.is_alive() and not errors, errors


def _answer_hello(sock, lines, **extra) -> dict:
    hello = json.loads(lines.readline())
    sock.sendall(encode_message({"ok": True, "op": "hello", "role": "reader", "versions": {}, **extra}))
    return hello


# ----------------------------------------------------------------------
# (a) binary and JSON connections side by side
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", ["PQ", "PMSD"])
def test_framed_and_json_connections_agree_from_cold_to_after_a_commit(tmp_path, method):
    rng = np.random.default_rng(17)
    with _serving(tmp_path, method) as server:
        values = server.engine.session.table.column("ra").data.copy()
        framed = ServiceClient(server.endpoint, timeout=TIMEOUT)
        plain = RawPeer(server.endpoint, frames=False)
        writer = ServiceClient(server.endpoint, role="writer", timeout=TIMEOUT)
        assert framed._column_ids == {"ra": 0, "flux": 1, "big": 2}
        assert "frames" not in plain.hello and "columns" not in plain.hello

        def compare(rounds):
            for _ in range(rounds):
                low = int(rng.integers(0, DOMAIN))
                high = low + int(rng.integers(0, DOMAIN // 10))
                point = int(values[rng.integers(0, values.size)])
                expected = _brute(values, low, high)
                got = framed.between("ra", low, high)
                assert got == plain.ask({"op": "between", "column": "ra", "low": low, "high": high})
                assert (got["sum"], got["count"]) == expected
                got = framed.equals("ra", point)
                assert got == plain.ask({"op": "equals", "column": "ra", "value": point})
                assert (got["sum"], got["count"]) == _brute(values, point, point)
            return got["version"]

        cold_version = compare(3)  # the first queries build the index
        for _ in range(200):
            if framed.status()["indexes"]["ra"]["converged"]:
                break
            framed.between("ra", 0, DOMAIN)
        assert framed.status()["indexes"]["ra"]["converged"]
        assert compare(20) == cold_version

        writer.insert({"ra": [123, 123, DOMAIN + 5], "flux": [0.5, 1.5, 2.5], "big": [1, 2, 3]})
        versions = writer.commit()
        assert compare(3) == cold_version  # both still pinned
        assert framed.refresh() == versions == plain.ask({"op": "refresh"})["versions"]
        values = np.concatenate([values, [123, 123, DOMAIN + 5]])
        assert compare(20) == versions["ra"] != cold_version
        for client in (framed, writer):
            client.close()
        plain.close()


# ----------------------------------------------------------------------
# (b) what does not fit a frame travels as JSON, same answers
# ----------------------------------------------------------------------
def test_reads_outside_the_frame_fall_back_to_json_with_reader_view_answers(tmp_path):
    with _serving(tmp_path) as server:
        view = server.engine.reader()
        cases = [
            ("flux", 10, 60),  # float column, int bounds: framed request, JSON reply
            ("flux", 10.5, 60.25),  # float bounds
            ("ra", 1000.5, 500_000),
            ("ra", -(1 << 70), 1 << 70),  # bounds past int64
            ("big", 0, BIG),  # sum past int64
            ("big", 5, 7),
            ("ra", 600, 500),  # low > high: the empty answer
        ]
        with ServiceClient(server.endpoint, timeout=TIMEOUT) as client:
            for column, low, high in cases:
                expected = view.between(column, low, high)
                got = client.between(column, low, high)
                assert got["sum"] == expected.value_sum and got["count"] == expected.count, (column, low, high)
            missing = client.equals("ra", DOMAIN + 77)
            assert (missing["sum"], missing["count"]) == (0, 0)
            assert client.equals("big", BIG)["sum"] == view.equals("big", BIG).value_sum
            assert client.equals("flux", 3)["count"] == view.equals("flux", 3).count
            with pytest.raises(ServiceError):
                client.between("no_such_column", 0, 1)
            assert client.between("ra", 0, DOMAIN)["count"] == ROWS  # still paired


def test_the_server_frames_a_reply_only_when_the_sum_packs(tmp_path):
    with _serving(tmp_path) as server:
        peer = RawPeer(server.endpoint, frames=True)
        assert peer.hello["frames"] == "b1" and peer.hello["columns"] == ["ra", "flux", "big"]
        assert peer.ask_frame(_frame(OP_BETWEEN, 0, 0, DOMAIN))["framed"]
        assert peer.ask_frame(_frame(OP_EQUALS, 2, 5, 0)) == {
            "ok": True, "sum": 5, "count": 1, "version": 0, "framed": True}
        assert peer.ask_frame(_frame(OP_BETWEEN, 0, 600, 500)) == {
            "ok": True, "sum": 0, "count": 0, "version": 0, "framed": True}
        # The engine's integer sums are int64 (they wrap); an exact sum past
        # it, should a column type ever produce one, stays a JSON line.
        assert protocol.encode_read_reply(1 << 63, 4, 0, framed=True) == encode_message(
            {"ok": True, "sum": 1 << 63, "count": 4, "version": 0})
        assert protocol.encode_read_reply(-(1 << 63), 4, 0, framed=True)[0] == FRAME_MAGIC
        floating = peer.ask_frame(_frame(OP_BETWEEN, 1, 0, 100))
        assert "framed" not in floating and floating["count"] == ROWS
        # A JSON request on the same connection gets a JSON reply.
        assert "framed" not in peer.ask({"op": "between", "column": "ra", "low": 0, "high": 9})
        peer.close()


def test_the_client_frames_only_int64_bounds_on_known_columns(tmp_path):
    seen = []

    def script(sock, lines):
        _answer_hello(sock, lines, frames="b1", columns=["ra"])
        for _ in range(7):
            head = lines.peek(1)[:1]
            if head[0] == FRAME_MAGIC:
                seen.append(REQUEST_FRAME.unpack(lines.read(REQUEST_FRAME.size))[1:])
                sock.sendall(REPLY_FRAME.pack(FRAME_MAGIC, TAG_READ, 1, 2, 3))
            else:
                seen.append(json.loads(lines.readline())["op"])
                sock.sendall(b'{"ok":true,"sum":1,"count":2,"version":3}\n')

    with _stub_server(tmp_path, script) as path:
        client = ServiceClient(path, timeout=TIMEOUT)
        answers = [
            client.between("ra", -5, 1 << 40),
            client.equals("ra", 9),
            client.between("ra", 0.5, 9),
            client.between("ra", 0, 1 << 63),
            client.between("ra", True, 9),
            client.equals("dec", 9),
            client.between("ra", np.float64(1.0).item(), 9),
        ]
        client._sock.close()
    assert all(answer == {"ok": True, "sum": 1, "count": 2, "version": 3} for answer in answers)
    assert seen == [(OP_BETWEEN, 0, -5, 1 << 40), (OP_EQUALS, 0, 9, 9),
                    "between", "between", "between", "equals", "between"]


# ----------------------------------------------------------------------
# (c) old and new interoperate
# ----------------------------------------------------------------------
def test_a_json_only_client_never_receives_a_frame_byte(tmp_path):
    with _serving(tmp_path) as server:
        peer = RawPeer(server.endpoint, frames=False)
        for low in range(0, DOMAIN, DOMAIN // 20):
            peer.sock.sendall(encode_message({"op": "between", "column": "ra", "low": low, "high": low + 5000}))
            peer.sock.sendall(encode_message({"op": "equals", "column": "big", "value": 6}))
        peer.sock.sendall(encode_message({"op": "bye"}))
        received = peer.file.read()
        assert received.count(b"\n") == 41 and bytes([FRAME_MAGIC]) not in received
        assert all(json.loads(line)["ok"] for line in received.splitlines())
        peer.close()


@pytest.mark.parametrize("old_client", [False, True], ids=["new-client", "old-client"])
def test_a_server_that_does_not_know_the_frame_serves_json(tmp_path, monkeypatch, old_client):
    """The old server, simulated by a server that knows a different frame."""
    monkeypatch.setattr(serve_connection, "FRAMES", "b0")
    with _serving(tmp_path) as server:
        view = server.engine.reader()
        expected = view.between("ra", 1000, 400_000)
        if old_client:
            peer = RawPeer(server.endpoint, frames=False)
            got = peer.ask({"op": "between", "column": "ra", "low": 1000, "high": 400_000})
            assert "frames" not in peer.hello
            peer.close()
        else:
            with ServiceClient(server.endpoint, timeout=TIMEOUT) as client:
                assert client._column_ids == {} and client._messages.frame_size is None
                got = client.between("ra", 1000, 400_000)
                assert client.equals("big", 7)["count"] == 1
        assert (got["sum"], got["count"], got["version"]) == (expected.value_sum, expected.count, 0)


def test_the_client_stays_on_json_when_the_hello_reply_has_no_echo(tmp_path):
    seen = []

    def script(sock, lines):
        seen.append(_answer_hello(sock, lines))
        seen.append(lines.readline())
        sock.sendall(b'{"ok":true,"sum":1,"count":2,"version":3}\n')

    with _stub_server(tmp_path, script) as path:
        client = ServiceClient(path, timeout=TIMEOUT)
        assert client.between("ra", 1, 2)["count"] == 2
        client._sock.close()
    assert seen[0]["frames"] == ["b1"]
    assert json.loads(seen[1]) == {"op": "between", "column": "ra", "low": 1, "high": 2}


# ----------------------------------------------------------------------
# (d) pipelined and split streams are answered in order
# ----------------------------------------------------------------------
def _read_exactly(sock, size: int) -> bytes:
    data = b""
    while len(data) < size:
        more = sock.recv(size - len(data))
        assert more, "server closed mid-stream"
        data += more
    return data


def test_pipelined_frames_are_answered_in_order_however_the_stream_is_cut(tmp_path):
    with _serving(tmp_path) as server:
        values = server.engine.session.table.column("ra").data
        lows = [int(v) for v in np.linspace(0, DOMAIN - 50_000, 200)]
        stream = b"".join(_frame(OP_BETWEEN, 0, low, low + 50_000) for low in lows)
        expected = b"".join(
            REPLY_FRAME.pack(FRAME_MAGIC, TAG_READ, *_brute(values, low, low + 50_000), 0)
            for low in lows)
        peer = RawPeer(server.endpoint, frames=True)
        peer.sock.sendall(stream)
        assert _read_exactly(peer.sock, len(expected)) == expected
        # Every offset across the first two frames, then a stride that meets
        # every offset within a frame somewhere along the stream.
        size = REQUEST_FRAME.size
        for cut in list(range(1, 2 * size + 1)) + list(range(2 * size + 1, len(stream), 97)):
            whole = cut // size  # requests complete before the cut
            peer.sock.sendall(stream[:cut])
            head = _read_exactly(peer.sock, whole * REPLY_FRAME.size)
            peer.sock.sendall(stream[cut:])
            tail = _read_exactly(peer.sock, len(expected) - len(head))
            assert head + tail == expected, cut
        peer.close()


def test_lines_interleaved_with_frames_are_answered_in_order_at_every_cut(tmp_path):
    with _serving(tmp_path) as server:
        messages = [
            _frame(OP_EQUALS, 2, 5, 0),
            encode_message({"op": "between", "column": "big", "low": 5, "high": 6}),
            _frame(OP_BETWEEN, 2, 5, 7),
            _frame(OP_BETWEEN, 1, 200, 300),  # a float column: answered as a JSON line
            encode_message({"op": "batch", "column": "big", "bounds": [[5, 5], [6, 7]]}),
            _frame(OP_EQUALS, 2, 7, 0),
        ]
        stream = b"".join(messages)
        peer = RawPeer(server.endpoint, frames=True)
        for cut in range(0, len(stream)):
            peer.sock.sendall(stream[:cut])
            if cut:
                time.sleep(0.0005)  # let the server meet the cut
            peer.sock.sendall(stream[cut:])
            replies = [peer.reply() for _ in messages]
            assert [r.get("framed", False) for r in replies] == [True, False, True, False, False, True]
            assert [r.get("sum") for r in replies] == [5, 11, 18, 0.0, None, 7], cut
            assert replies[4]["sums"] == [5, 13]
        peer.close()


# ----------------------------------------------------------------------
# (e) framing violations close, malformed messages do not
# ----------------------------------------------------------------------
def test_an_oversized_line_gets_one_error_and_the_connection_closes(tmp_path, monkeypatch):
    monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 256)
    with _serving(tmp_path) as server:
        peer = RawPeer(server.endpoint, frames=False)
        within = {"op": "batch", "column": "ra", "bounds": [[0, 1]] * 20}
        assert len(encode_message(within)) <= 256 and peer.ask(within)["ok"]
        # One long line that used to be parsed on as several requests.
        padding = b" " * 300
        peer.sock.sendall(b'{"op":"status","pad":"' + padding + b'"}\n' + encode_message({"op": "status"}))
        reply = peer.reply()
        assert reply["ok"] is False and reply["error"] == "protocol" and "limit" in reply["message"]
        assert peer.closed()
        peer.close()


@pytest.mark.parametrize("payload", [
    pytest.param(_frame(OP_BETWEEN, 0, 0, 10)[:11], id="truncated-frame"),
    pytest.param(b'{"op":"status"', id="truncated-line"),
])
def test_eof_inside_a_message_ends_the_connection(tmp_path, payload):
    with _serving(tmp_path) as server:
        peer = RawPeer(server.endpoint, frames=True)
        peer.sock.sendall(payload)
        peer.sock.shutdown(socket.SHUT_WR)
        reply = peer.reply()
        assert reply["ok"] is False and "truncated" in reply["message"]
        assert peer.closed()
        peer.close()


def test_an_unknown_magic_byte_ends_the_connection(tmp_path):
    with _serving(tmp_path) as server:
        peer = RawPeer(server.endpoint, frames=True)
        peer.sock.sendall(b"\xb2" + bytes(19))  # no newline: waiting for one would hang
        reply = peer.reply()
        assert reply["ok"] is False and reply["error"] == "protocol"
        assert peer.closed()
        peer.close()


def test_a_frame_before_hello_ends_the_connection(tmp_path):
    with _serving(tmp_path) as server:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(TIMEOUT)
        sock.connect(server.endpoint)
        sock.sendall(_frame(OP_BETWEEN, 0, 0, 10))
        with sock.makefile("rb") as lines:
            reply = json.loads(lines.readline())
            assert reply["ok"] is False and "negotiated" in reply["message"]
            assert lines.read() == b""
        sock.close()


def test_malformed_messages_get_typed_errors_and_the_connection_keeps_serving(tmp_path):
    with _serving(tmp_path) as server:
        peer = RawPeer(server.endpoint, frames=True)
        peer.sock.sendall(b'{"op": "between", "column": \n')
        reply = peer.reply()
        assert reply["ok"] is False and reply["error"] == "protocol" and "malformed JSON" in reply["message"]
        peer.sock.sendall(b"[1, 2]\n")
        assert peer.reply()["error"] == "protocol"
        unknown_op = peer.ask_frame(_frame(9, 0, 0, 10))
        assert unknown_op["ok"] is False and unknown_op["error"] == "ProtocolError"
        out_of_range = peer.ask_frame(_frame(OP_BETWEEN, 3, 0, 10))
        assert out_of_range["ok"] is False and "column id 3" in out_of_range["message"]
        assert peer.ask({"op": "nonsense"})["error"] == "ProtocolError"
        assert peer.ask({"op": "between", "column": "ra"})["error"] == "bad-request"
        # Still paired, in both formats.
        assert peer.ask_frame(_frame(OP_BETWEEN, 0, 0, DOMAIN))["count"] == ROWS
        assert peer.ask({"op": "between", "column": "ra", "low": 0, "high": DOMAIN})["count"] == ROWS
        peer.close()


# ----------------------------------------------------------------------
# (f) a writer connection is never switched to frames
# ----------------------------------------------------------------------
def test_a_writer_connection_is_never_switched_to_frames(tmp_path):
    with _serving(tmp_path) as server:
        with ServiceClient(server.endpoint, role="writer", timeout=TIMEOUT) as writer:
            assert writer._column_ids == {} and writer._messages.frame_size is None
        peer = RawPeer(server.endpoint, frames=True, role="writer")  # the offer every client makes
        assert peer.hello["ok"] and "frames" not in peer.hello
        reply = peer.ask_frame(_frame(OP_BETWEEN, 0, 0, 10))
        assert reply["ok"] is False and "negotiated" in reply["message"]
        assert peer.closed()
        peer.close()
        # The closed connection released the writer slot.
        deadline = time.monotonic() + TIMEOUT
        while True:
            try:
                ServiceClient(server.endpoint, role="writer", timeout=TIMEOUT).close()
                break
            except ServiceError:
                assert time.monotonic() < deadline
                time.sleep(0.01)


# ----------------------------------------------------------------------
# A request without a complete reply ends the client's connection
# ----------------------------------------------------------------------
def test_a_timed_out_request_does_not_answer_the_next_one(tmp_path):
    released = threading.Event()

    def script(sock, lines):
        _answer_hello(sock, lines)
        lines.readline()
        released.wait(TIMEOUT)  # past the client's timeout
        with contextlib.suppress(OSError):
            sock.sendall(b'{"ok":true,"sum":111,"count":111,"version":0}\n')
            lines.readline()
            sock.sendall(b'{"ok":true,"sum":222,"count":222,"version":0}\n')

    with _stub_server(tmp_path, script) as path:
        client = ServiceClient(path, timeout=0.2)
        with pytest.raises(ConnectionLostError) as excinfo:
            client.between("ra", 0, 111)
        assert isinstance(excinfo.value.__cause__, socket.timeout)
        released.set()
        time.sleep(0.05)  # the late reply is on its way by now
        for call in (lambda: client.between("ra", 0, 222), client.status, client.refresh):
            with pytest.raises(ConnectionLostError):
                call()
        client.close()  # idempotent, no bye on a dead connection


def test_a_short_reply_ends_the_connection(tmp_path):
    def script(sock, lines):
        _answer_hello(sock, lines, frames="b1", columns=["ra"])
        lines.read(REQUEST_FRAME.size)
        sock.sendall(REPLY_FRAME.pack(FRAME_MAGIC, TAG_READ, 1, 2, 3)[:9])

    with _stub_server(tmp_path, script) as path:
        client = ServiceClient(path, timeout=TIMEOUT)
        with pytest.raises(ConnectionLostError, match="truncated frame"):
            client.between("ra", 0, 1)
        with pytest.raises(ConnectionLostError):
            client.equals("ra", 0)


# ----------------------------------------------------------------------
# FrameReader
# ----------------------------------------------------------------------
def _reader(chunks, frame_size=REQUEST_FRAME.size) -> FrameReader:
    feed = list(chunks)
    reader = FrameReader(lambda size: feed.pop(0) if feed else b"")
    reader.frame_size = frame_size
    return reader


def _drain(reader: FrameReader) -> list:
    messages = []
    while (message := reader.read()) is not None:
        messages.append(message)
    return messages


def test_frame_reader_enforces_the_line_limit(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 32)
    exact = b"x" * 31 + b"\n"
    assert _drain(_reader([exact])) == [exact]
    assert _drain(_reader([exact[:10], exact[10:]])) == [exact]
    for chunks in ([b"x" * 32 + b"\n"], [b"x" * 20, b"x" * 12 + b"\n"], [b"x" * 32, b"\n"],
                   [b"x" * 20, b"x" * 20]):  # the last: over the limit with no newline yet
        with pytest.raises(FramingError, match="limit"):
            _reader(chunks).read()


def test_frame_reader_line_ending_at_a_recv_boundary():
    assert _drain(_reader([b'{"a":1}\n', b'{"b":2}\n'])) == [b'{"a":1}\n', b'{"b":2}\n']
    assert _drain(_reader([b'{"a"', b":1}\n"])) == [b'{"a":1}\n']
    assert _drain(_reader([b'{"a":1}', b"\n", b'{"b":2}\n'])) == [b'{"a":1}\n', b'{"b":2}\n']


@pytest.mark.parametrize("cut", [1, 19])
def test_frame_reader_joins_a_split_frame(cut):
    frame = _frame(OP_BETWEEN, 7, -3, 1 << 40)
    assert _drain(_reader([frame[:cut], frame[cut:]])) == [frame]
    assert _drain(_reader([frame + frame[:cut], frame[cut:] + b"{}\n"])) == [frame, frame, b"{}\n"]


def test_frame_reader_eof_is_clean_only_between_messages():
    frame = _frame(OP_EQUALS, 0, 5, 5)
    assert _reader([]).read() is None
    assert _drain(_reader([frame, b"{}\n"])) == [frame, b"{}\n"]
    with pytest.raises(ProtocolError, match="truncated frame"):
        _reader([frame[:12]]).read()
    with pytest.raises(ProtocolError, match="truncated message"):
        _reader([b'{"op":']).read()
    after_one = _reader([b"{}\n" + frame[:5]])
    assert after_one.read() == b"{}\n"
    with pytest.raises(ProtocolError, match="truncated frame"):
        after_one.read()


def test_frame_reader_serves_many_messages_from_one_chunk():
    frames = [_frame(OP_BETWEEN, 0, low, low + 1) for low in range(50)]
    lines = [encode_message({"op": "status", "n": n}) for n in range(50)]
    mixed = [message for pair in zip(frames, lines) for message in pair]
    assert _drain(_reader([b"".join(mixed)])) == mixed


def test_frame_reader_rejects_frames_it_did_not_negotiate():
    with pytest.raises(FramingError, match="negotiated"):
        _reader([_frame(OP_BETWEEN, 0, 0, 1)], frame_size=None).read()
    with pytest.raises(FramingError, match="0xff"):
        _reader([b"\xff\n"]).read()


def test_read_message_on_a_stream_is_unchanged():
    stream = io.BytesIO(b'{"op":"status"}\n{"ok":true}\n')
    assert read_message(stream) == {"op": "status"}
    assert read_message(stream) == {"ok": True}
    assert read_message(stream) is None
    for data, match in ((b'{"op":', "truncated"), (b"{nope}\n", "malformed JSON"), (b"[1]\n", "JSON objects")):
        with pytest.raises(ProtocolError, match=match):
            read_message(io.BytesIO(data))
    payload = {"op": "between", "column": "ra", "low": 1, "high": 2}
    assert read_message(io.BytesIO(encode_message(payload))) == payload
