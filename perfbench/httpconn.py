"""A minimal keep-alive HTTP/1.1 client over a raw socket.

The timed loops send pre-encoded bodies, so the client does no JSON work:
one ``sendall`` of request head plus body (``TCP_NODELAY`` on, like
``http.client``), then a read of the status line, the headers and exactly
``Content-Length`` body bytes.  ``ServeClient`` is not used because it
re-encodes every body.
"""

from __future__ import annotations

import socket
import time


class HttpError(Exception):
    """The connection broke or the reply was not HTTP."""


class Connection:
    def __init__(self, host: str, port: int, *, timeout: float = 120.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._host = f"{host}:{port}".encode("ascii")
        self._buf = b""

    def request(self, method: str, path: str,
                body: bytes = b"") -> "tuple[int, bytes, float]":
        """Send one request; returns ``(status, body, round_trip_s)``."""
        head = b"".join((method.encode("ascii"), b" ", path.encode("ascii"),
                         b" HTTP/1.1\r\nHost: ", self._host,
                         b"\r\nContent-Type: application/json\r\n"
                         b"Content-Length: ", str(len(body)).encode("ascii"),
                         b"\r\n\r\n"))
        started = time.perf_counter()
        self.sock.sendall(head + body)
        status, payload = self._read_response()
        return status, payload, time.perf_counter() - started

    def _read_response(self) -> "tuple[int, bytes]":
        buf = self._buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self.sock.recv(65536)
            if not chunk:
                raise HttpError("connection closed before the reply headers")
            buf += chunk
        lines = buf[:end].split(b"\r\n")
        try:
            status = int(lines[0].split(b" ", 2)[1])
        except (IndexError, ValueError):
            raise HttpError(f"bad status line {lines[0]!r}") from None
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        body_start = end + 4
        need = body_start + length
        parts = [buf]
        have = len(buf)
        while have < need:
            chunk = self.sock.recv(max(65536, need - have))
            if not chunk:
                raise HttpError("connection closed mid-body")
            parts.append(chunk)
            have += len(chunk)
        buf = b"".join(parts) if len(parts) > 1 else buf
        self._buf = buf[need:]
        return status, buf[body_start:need]

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
