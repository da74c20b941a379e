"""Typed, framed messaging between farm processes.

The distributed farm (:mod:`repro.resil.shardfarm`) shards the supervisor
across OS processes, ConPro-style: isolated workers exchanging typed JSON
messages over channels.  This module is the channel: **length-prefixed JSON
frames** over a ``socket.socketpair()`` (or any stream socket), with

* **partial-read reassembly** — a frame is a 4-byte big-endian length
  header followed by the canonical-JSON payload; :meth:`Channel.recv`
  loops until the whole frame arrived, however the kernel fragments it;
* **oversized-frame rejection** — a header announcing more than
  ``max_frame`` bytes raises :class:`FrameTooLarge` *before* any payload
  is read, so a corrupt or hostile peer cannot balloon memory;
* **per-request timeouts** — every receive takes a deadline; a peer that
  stops talking raises :class:`TransportTimeout`, never a hang;
* **attributed close** — a peer that dies mid-frame (the SIGKILL chaos
  case) raises :class:`TransportClosed` naming how many bytes of which
  frame arrived, so the supervisor's report says *what* was lost.

Liveness lives in the shard supervisor's tick loop, not here: each tick
a running shard gets a dispatch or, with nothing to do, a ``ping``, and a
reply that misses the per-request timeout (:class:`TransportTimeout`)
counts as a missed heartbeat.

Framing is deliberately the same canonical JSON the snapshot layer uses:
a :class:`~repro.resil.snapshot.MachineSnapshot` document or a
:class:`~repro.resil.delta.DeltaSnapshot` rides the wire unchanged.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from typing import Any, Optional, Tuple

#: 4-byte big-endian unsigned frame-length header
_HEADER = struct.Struct(">I")
HEADER_BYTES = _HEADER.size

#: default ceiling on one frame's payload; a full machine snapshot for the
#: shipped workloads is a few tens of KiB, so 16 MiB is generous headroom
DEFAULT_MAX_FRAME = 16 * 1024 * 1024


class TransportError(Exception):
    """Base class for channel failures."""


class TransportClosed(TransportError):
    """The peer closed (or was killed); the message names what was lost."""


class TransportTimeout(TransportError):
    """The peer did not answer within the deadline."""


class FrameTooLarge(TransportError):
    """A frame header announced a payload above the channel's ceiling."""


def encode_frame(message: Any, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Serialize *message* as one length-prefixed canonical-JSON frame."""
    payload = json.dumps(message, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    if len(payload) > max_frame:
        raise FrameTooLarge(
            f"frame of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte ceiling")
    return _HEADER.pack(len(payload)) + payload


class Channel:
    """One end of a framed duplex stream between two farm processes."""

    def __init__(self, sock: socket.socket,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 name: str = "peer") -> None:
        self.sock = sock
        self.max_frame = max_frame
        self.name = name
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self._buffer = b""
        self._closed = False

    # -- sending -----------------------------------------------------------
    def send(self, message: Any) -> None:
        """Frame and send one message (blocking until fully written)."""
        if self._closed:
            raise TransportClosed(f"channel to {self.name} is closed")
        frame = encode_frame(message, self.max_frame)
        try:
            self.sock.sendall(frame)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise TransportClosed(
                f"send to {self.name} failed: {exc}") from None
        self.frames_sent += 1
        self.bytes_sent += len(frame)

    # -- receiving ---------------------------------------------------------
    def recv(self, timeout: Optional[float] = None) -> Any:
        """Receive one message, reassembling however the stream fragments.

        *timeout* bounds the whole frame, not each read; ``None`` blocks.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        header = self._recv_exact(HEADER_BYTES, deadline, "frame header")
        (length,) = _HEADER.unpack(header)
        if length > self.max_frame:
            raise FrameTooLarge(
                f"peer {self.name} announced a {length}-byte frame; the "
                f"channel ceiling is {self.max_frame} bytes")
        payload = self._recv_exact(length, deadline,
                                   f"{length}-byte payload")
        self.frames_received += 1
        self.bytes_received += HEADER_BYTES + length
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TransportError(
                f"frame from {self.name} is not valid JSON: {exc}") \
                from None

    def _recv_exact(self, n: int, deadline: Optional[float],
                    what: str) -> bytes:
        """Read exactly *n* bytes, surfacing EOF and deadline honestly."""
        while len(self._buffer) < n:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportTimeout(
                        f"timed out waiting for {what} from {self.name} "
                        f"({len(self._buffer)} of {n} bytes buffered)")
                self.sock.settimeout(remaining)
            else:
                self.sock.settimeout(None)
            try:
                chunk = self.sock.recv(65536)
            except socket.timeout:
                raise TransportTimeout(
                    f"timed out waiting for {what} from {self.name} "
                    f"({len(self._buffer)} of {n} bytes buffered)") \
                    from None
            except (ConnectionResetError, OSError) as exc:
                raise TransportClosed(
                    f"{self.name} dropped mid-{what}: {exc}") from None
            if not chunk:
                raise TransportClosed(
                    f"{self.name} closed with {len(self._buffer)} of {n} "
                    f"bytes of the {what} received")
            self._buffer += chunk
        data, self._buffer = self._buffer[:n], self._buffer[n:]
        return data

    # -- request/response --------------------------------------------------
    def request(self, message: Any,
                timeout: Optional[float] = None) -> Any:
        """Send one message and await the reply (the farm's RPC shape)."""
        self.send(message)
        return self.recv(timeout)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self.sock.close()
            except OSError:
                pass

    def describe(self) -> dict:
        return {
            "name": self.name,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }


def channel_pair(max_frame: int = DEFAULT_MAX_FRAME,
                 names: Tuple[str, str] = ("parent", "child")
                 ) -> Tuple[Channel, socket.socket]:
    """A (supervisor channel, raw child socket) pair over ``socketpair``.

    The child end is handed to the forked worker raw; the worker wraps it
    in its own :class:`Channel` after closing the parent end's duplicate.
    """
    parent_sock, child_sock = socket.socketpair()
    return Channel(parent_sock, max_frame, name=names[1]), child_sock
