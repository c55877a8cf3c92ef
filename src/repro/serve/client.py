"""A tiny synchronous client for the analysis daemon (stdlib only).

Used by the benchmark's serve load process (``perfbench/serve_load.py``),
the test-suite, and anyone scripting against a local daemon without
wanting an HTTP library.  Two shapes:

* :func:`request` / :func:`post_json` / :func:`get` — one connection
  per call, framed by the daemon closing the socket;
* :class:`ServeClient` — a persistent keep-alive connection framed on
  ``Content-Length`` (the daemon always sends it), with reconnect-once
  on a dead socket and reuse counters for the benchmark.
"""

from __future__ import annotations

import json
import socket
from typing import Any


class ServeClientError(RuntimeError):
    """The daemon's response could not be read or parsed."""


def _decode_body(headers: dict, body: bytes) -> Any:
    if headers.get("content-type", "").startswith("application/json"):
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeClientError(f"daemon sent invalid JSON: {exc}")
    return body.decode("utf-8", errors="replace")


def _format_request(host: str, port: int, method: str, path: str,
                    body: bytes, keep_alive: bool) -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
    )
    if body:
        head += ("Content-Type: application/json\r\n"
                 f"Content-Length: {len(body)}\r\n")
    head += "\r\n"
    return head.encode("latin-1") + body


class ServeClient:
    """A keep-alive client: one persistent socket, many exchanges.

    Responses are framed on the ``Content-Length`` header the daemon
    always emits, so the connection survives between requests instead
    of paying a TCP handshake per call.  A connection-level failure
    (daemon restarted, idle socket reaped) closes the socket and the
    exchange is retried once on a fresh connection — analysis requests
    are idempotent, so the benchmark loop never sees a spurious error.

    ``connections_opened`` vs ``requests_sent`` quantifies the reuse:
    a perfectly healthy run opens one connection for N requests.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: TCP connections dialled over this client's lifetime.
        self.connections_opened = 0
        #: Exchanges completed (response fully read).
        self.requests_sent = 0
        self._sock: socket.socket | None = None
        self._buffer = bytearray()

    @property
    def connections_reused(self) -> int:
        """Requests that rode an already-open connection."""
        return max(0, self.requests_sent - self.connections_opened)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
        self._buffer.clear()

    # -- wire plumbing ---------------------------------------------------------

    def _connect(self) -> None:
        self.close()
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout)
        self.connections_opened += 1

    def _recv_more(self) -> None:
        assert self._sock is not None
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionResetError("daemon closed the connection")
        self._buffer.extend(chunk)

    def _read_until(self, delimiter: bytes) -> bytes:
        while True:
            index = self._buffer.find(delimiter)
            if index >= 0:
                block = bytes(self._buffer[:index])
                del self._buffer[:index + len(delimiter)]
                return block
            self._recv_more()

    def _read_exact(self, count: int) -> bytes:
        while len(self._buffer) < count:
            self._recv_more()
        block = bytes(self._buffer[:count])
        del self._buffer[:count]
        return block

    def _read_response(self) -> tuple[int, Any]:
        header_block = self._read_until(b"\r\n\r\n").decode("latin-1")
        lines = header_block.split("\r\n")
        try:
            status = int(lines[0].split(" ")[1])
        except (IndexError, ValueError):
            raise ServeClientError(f"malformed status line {lines[0]!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "content-length" not in headers:
            raise ServeClientError(
                "daemon response has no Content-Length; cannot frame a "
                "keep-alive exchange")
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ServeClientError(
                f"bad Content-Length {headers['content-length']!r}")
        body = self._read_exact(length)
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, _decode_body(headers, body)

    # -- public API ------------------------------------------------------------

    def request(self, method: str, path: str,
                payload: Any | None = None) -> tuple[int, Any]:
        """One exchange on the persistent connection.

        Returns ``(status, decoded body)``.  Retries exactly once on a
        fresh connection when the socket turns out to be dead.
        """
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        wire = _format_request(self.host, self.port, method, path, body,
                               keep_alive=True)
        for attempt in (0, 1):
            reconnected = self._sock is None
            if reconnected:
                self._connect()
            try:
                assert self._sock is not None
                self._sock.sendall(wire)
                status, decoded = self._read_response()
            except OSError:
                self.close()
                self._buffer.clear()
                if attempt or reconnected:
                    raise
                continue
            self.requests_sent += 1
            return status, decoded
        raise ServeClientError("unreachable")  # pragma: no cover

    def post_json(self, path: str, payload: Any) -> tuple[int, Any]:
        return self.request("POST", path, payload)

    def get(self, path: str) -> tuple[int, Any]:
        return self.request("GET", path)


def request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Any | None = None,
    timeout: float = 60.0,
) -> tuple[int, Any]:
    """One HTTP exchange; returns ``(status, decoded body)``.

    JSON bodies decode to Python values; anything else (``/metrics``)
    comes back as ``str``.
    """
    body = b""
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Connection: close\r\n"
    )
    if body:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    head += "\r\n"

    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head.encode("latin-1") + body)
        raw = bytearray()
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw.extend(chunk)

    header_end = raw.find(b"\r\n\r\n")
    if header_end < 0:
        raise ServeClientError("no header terminator in daemon response")
    header_block = raw[:header_end].decode("latin-1")
    lines = header_block.split("\r\n")
    try:
        status = int(lines[0].split(" ")[1])
    except (IndexError, ValueError):
        raise ServeClientError(f"malformed status line {lines[0]!r}")
    headers = {}
    for line in lines[1:]:
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    response_body = bytes(raw[header_end + 4:])
    if headers.get("content-type", "").startswith("application/json"):
        try:
            return status, json.loads(response_body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeClientError(f"daemon sent invalid JSON: {exc}")
    return status, response_body.decode("utf-8", errors="replace")


def post_json(host: str, port: int, path: str, payload: Any,
              timeout: float = 60.0) -> tuple[int, Any]:
    return request(host, port, "POST", path, payload, timeout)


def get(host: str, port: int, path: str,
        timeout: float = 60.0) -> tuple[int, Any]:
    return request(host, port, "GET", path, None, timeout)
