"""Stream framing and control-plane exchanges.

Envelopes on a TCP stream are prefixed with a u32 length; a datagram is one
envelope.  A service sends its control messages to each peer on one
persistent connection (`services.base.PeerChannel`).  `oneshot` also takes a
bare address, for a connection opened for one exchange and closed after it,
which is what the CLI and the tests use.
"""

from __future__ import annotations

import socket
import struct
from typing import Iterable, Optional, Protocol, Union

from ..errors import TransportError
from .codec import MAX_BODY_LEN
from .messages import ProtocolEnvelope, decode_envelope, encode_envelope

_FRAME_CAP = MAX_BODY_LEN + 1024  # envelope overhead on top of the body cap
DEFAULT_TIMEOUT_S = 5.0

Address = tuple[str, int]


def send_envelopes(sock: socket.socket, envs: Iterable[ProtocolEnvelope]) -> None:
    """Write `envs` back to back, each as a length-prefixed frame, in one send."""
    payloads = [encode_envelope(env) for env in envs]
    try:
        sock.sendall(b"".join(struct.pack(">I", len(p)) + p for p in payloads))
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from None


def recv_frame(sock: socket.socket) -> Optional[bytes]:
    """One length-prefixed frame, or None on orderly EOF at a frame boundary."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > _FRAME_CAP:
        raise TransportError(f"frame of {length} bytes exceeds the cap")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise TransportError("connection closed mid-frame")
    return payload


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Exactly `n` bytes, or None on EOF before the first of them."""
    buf = b""
    while len(buf) < n:
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


class FrameReader:
    """Envelopes from a stream whose bytes arrive in pieces of any size."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf += data

    def next_envelope(self) -> Optional[ProtocolEnvelope]:
        """The next complete envelope, decoded, or None until one has arrived.

        Raises TransportError for a frame over the cap and DecodeError for
        one that does not decode; the stream is unusable after either.
        """
        if len(self._buf) < 4:
            return None
        (length,) = struct.unpack_from(">I", self._buf)
        if length > _FRAME_CAP:
            raise TransportError(f"frame of {length} bytes exceeds the cap")
        end = 4 + length
        if len(self._buf) < end:
            return None
        payload = bytes(self._buf[4:end])
        del self._buf[:end]
        return decode_envelope(payload)


def send_envelope(sock: socket.socket, env: ProtocolEnvelope) -> None:
    send_envelopes(sock, (env,))


def recv_envelope(sock: socket.socket) -> Optional[ProtocolEnvelope]:
    payload = recv_frame(sock)
    return decode_envelope(payload) if payload is not None else None


def exchange_on(
    sock: socket.socket, envs: Iterable[ProtocolEnvelope], await_reply: bool
) -> Optional[ProtocolEnvelope]:
    """Send `envs` on `sock` in one write and, with `await_reply`, read one back."""
    send_envelopes(sock, envs)
    if not await_reply:
        return None
    reply = recv_envelope(sock)
    if reply is None:
        raise TransportError("connection closed before the reply")
    return reply


class Channel(Protocol):
    """A persistent connection to one peer (`services.base.PeerChannel`)."""

    def exchange(
        self, env: ProtocolEnvelope, await_reply: bool, timeout_s: float
    ) -> Optional[ProtocolEnvelope]: ...


def oneshot(
    peer: Union[Address, Channel], env: ProtocolEnvelope, await_reply: bool,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> Optional[ProtocolEnvelope]:
    """Send one envelope to `peer` and, with `await_reply`, return its reply.

    `peer` is a channel, whose persistent connection carries the exchange,
    or an address, for a connection opened for this exchange and closed
    after it.
    """
    if not isinstance(peer, tuple):
        return peer.exchange(env, await_reply, timeout_s)
    try:
        with socket.create_connection(peer, timeout=timeout_s) as sock:
            sock.settimeout(timeout_s)
            return exchange_on(sock, (env,), await_reply)
    except OSError as exc:
        raise TransportError(f"{peer}: {exc}") from None
