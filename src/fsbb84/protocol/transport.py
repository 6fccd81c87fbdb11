"""Reliable byte-stream transports and the framed message channel.

:class:`StreamTransport` frames messages over a TCP socket, or over an
:class:`InlinePeer`, the socket stand-in of in-process sessions, so both
take the same encode and read path.
"""

from __future__ import annotations

import socket
import time

from ..errors import NeedMoreBytes, SessionFailedError
from .framing import decode_frame, encode_frame

_RECV_CHUNK = 1 << 16


class StreamTransport:
    """Framed messaging over a connected socket."""

    def __init__(self, sock: socket.socket, timeout_s: float = 30.0):
        self._sock = sock
        self._sock.settimeout(timeout_s)
        self._buf = bytearray()
        self._offset = 0

    def send_message(self, message) -> None:
        try:
            self._sock.sendall(encode_frame(message))
        except OSError as e:
            raise SessionFailedError(f"transport send failed: {e}") from e

    def recv_message(self):
        """Block until one full frame arrives; raise on EOF or timeout."""
        while True:
            try:
                msg, self._offset = decode_frame(self._buf, self._offset)
            except NeedMoreBytes:
                if self._offset:
                    del self._buf[:self._offset]
                    self._offset = 0
                try:
                    chunk = self._sock.recv(_RECV_CHUNK)
                except socket.timeout as e:
                    raise SessionFailedError("transport read timed out") from e
                except OSError as e:
                    raise SessionFailedError(f"transport read failed: {e}") from e
                if not chunk:
                    raise SessionFailedError("transport closed by peer")
                self._buf.extend(chunk)
            else:
                return msg

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class InlinePeer:
    """A socket stand-in whose far end is a party generator, stepped inline:
    frames sent to it are fed to the party, what it yields waits for ``recv``,
    and a ``recv`` with nothing waiting is a deadlock. ``result`` is the
    party's report once it returns; frames sent after that go unread."""

    def __init__(self, party):
        self.result, self._party, self._out = None, party, bytearray()
        self._feed(None)

    def _feed(self, message) -> None:
        try:
            out = self._party.send(message)
            while out is not None:
                self._out += encode_frame(out)
                out = next(self._party)
        except StopIteration as end:
            self.result = end.value

    def sendall(self, frame: bytes) -> None:
        if self.result is None:
            self._feed(decode_frame(frame)[0])

    def recv(self, size: int) -> bytes:
        if not self._out:
            raise SessionFailedError("deadlock: the in-process peer waits to read too")
        chunk = bytes(self._out[:size])
        del self._out[:size]
        return chunk

    settimeout = close = lambda self, *args: None  # stepped inline: never blocks


def connect(host: str, port: int, timeout_s: float = 30.0,
            retry_for_s: float = 5.0) -> StreamTransport:
    """Dial a listening party, retrying briefly while it comes up."""
    deadline = time.monotonic() + retry_for_s
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout_s)
            return StreamTransport(sock, timeout_s)
        except OSError as e:
            if time.monotonic() >= deadline:
                raise SessionFailedError(f"connect to {host}:{port} failed: {e}",
                                         phase="connect") from e
            time.sleep(0.05)


def listen_accept(host: str, port: int, timeout_s: float = 30.0) -> StreamTransport:
    """Accept exactly one peer connection (raises on timeout)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as srv:
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(1)
        srv.settimeout(timeout_s)
        try:
            conn, _ = srv.accept()
        except socket.timeout as e:
            raise SessionFailedError(f"no peer connected to {host}:{port} "
                                     f"within {timeout_s}s", phase="listen") from e
        return StreamTransport(conn, timeout_s)
