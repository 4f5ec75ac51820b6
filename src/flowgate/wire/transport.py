"""Stream framing and one-shot control-plane exchanges.

Envelopes on a TCP stream are prefixed with a u32 length; a datagram is one
envelope.  Control messages are small and infrequent, so each exchange opens
a fresh connection — no pooling, no pipelining.
"""

from __future__ import annotations

import socket
import struct
import time
from typing import Optional

from ..errors import TransportError
from .codec import MAX_BODY_LEN
from .messages import ProtocolEnvelope, decode_envelope, encode_envelope

_FRAME_CAP = MAX_BODY_LEN + 1024  # envelope overhead on top of the body cap
DEFAULT_TIMEOUT_S = 5.0

Address = tuple[str, int]


def send_frame(sock: socket.socket, payload: bytes) -> None:
    try:
        sock.sendall(struct.pack(">I", len(payload)) + payload)
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from None


def recv_frame(sock: socket.socket, deadline: Optional[float] = None) -> Optional[bytes]:
    """One length-prefixed frame, or None on orderly EOF at a frame boundary.

    With a `deadline` (a `time.monotonic()` value) the whole frame must
    arrive by then; otherwise the socket's timeout applies to each receive.
    """
    header = _recv_exact(sock, 4, deadline)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > _FRAME_CAP:
        raise TransportError(f"frame of {length} bytes exceeds the cap")
    payload = _recv_exact(sock, length, deadline)
    if payload is None:
        raise TransportError("connection closed mid-frame")
    return payload


def _recv_exact(sock: socket.socket, n: int, deadline: Optional[float]) -> Optional[bytes]:
    """Exactly `n` bytes, or None on EOF before the first of them."""
    buf = b""
    while len(buf) < n:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError("receive timed out")
            sock.settimeout(remaining)
        try:
            chunk = sock.recv(n - len(buf))
        except socket.timeout:
            raise TransportError("receive timed out") from None
        except OSError as exc:
            raise TransportError(f"receive failed: {exc}") from None
        if not chunk:
            if buf:
                raise TransportError("connection closed mid-frame")
            return None
        buf += chunk
    return buf


def send_envelope(sock: socket.socket, env: ProtocolEnvelope) -> None:
    send_frame(sock, encode_envelope(env))


def recv_envelope(
    sock: socket.socket, deadline: Optional[float] = None
) -> Optional[ProtocolEnvelope]:
    payload = recv_frame(sock, deadline)
    return decode_envelope(payload) if payload is not None else None


def oneshot(
    addr: Address, env: ProtocolEnvelope, await_reply: bool, timeout_s: float = DEFAULT_TIMEOUT_S
) -> Optional[ProtocolEnvelope]:
    """Connect, send one envelope, optionally wait for one reply, close."""
    try:
        with socket.create_connection(addr, timeout=timeout_s) as sock:
            sock.settimeout(timeout_s)
            send_envelope(sock, env)
            if not await_reply:
                return None
            reply = recv_envelope(sock)
            if reply is None:
                raise TransportError(f"{addr}: connection closed before the reply")
            return reply
    except OSError as exc:
        raise TransportError(f"{addr}: {exc}") from None
