"""Shared service runtime: control server, metrics, envelope production."""

from __future__ import annotations

import logging
import select
import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable, Optional, Sequence

from ..errors import ServiceStartupError, TransportError
from ..wire.auth import (
    AuthScheme,
    Authenticator,
    Ed25519Authenticator,
    HmacSha512Authenticator,
    InboundGate,
    NoopAuthenticator,
    OpenFailure,
    SequenceCounter,
    seal,
)
from ..wire.codec import DecodeError
from ..wire.messages import MessageBody, ProtocolEnvelope
from ..wire.transport import DEFAULT_TIMEOUT_S, Address, FrameReader, exchange_on, send_envelope
from .config import ServiceConfig


def now_ms() -> int:
    return int(time.time() * 1000)


def log_event(logger: logging.Logger, event: str, **fields) -> None:
    """One structured line per event: ``event=... key=value ...``."""
    if not logger.isEnabledFor(logging.INFO):
        return  # formatting the line costs more than the check
    parts = [f"event={event}"]
    parts.extend(f"{k.replace('_', '-')}={v}" for k, v in fields.items())
    logger.info(" ".join(parts))


class Metrics:
    """Thread-safe event counters, dumped once at shutdown."""

    def __init__(self):
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def incr(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + by

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def dump(self) -> dict[str, int]:
        with self._lock:
            return dict(sorted(self._counts.items()))


def build_authenticator(cfg: ServiceConfig) -> Authenticator:
    if cfg.scheme is AuthScheme.NOOP:
        return NoopAuthenticator()
    if cfg.scheme is AuthScheme.HMAC_SHA512:
        return HmacSha512Authenticator(cfg.peer_secrets)
    return Ed25519Authenticator(cfg.private_key, cfg.peer_pubkeys)


class EnvelopeFactory:
    """Builds sealed envelopes for one sender identity, and keeps its channels."""

    def __init__(self, sender_id: str, auth: Authenticator, clock: Callable[[], int] = now_ms):
        self.sender_id = sender_id
        self._auth = auth
        self._seq = SequenceCounter()
        self._clock = clock
        self._channels: dict[str, PeerChannel] = {}
        self._closed = False

    def sealed(self, body: MessageBody, peer: str) -> ProtocolEnvelope:
        env = ProtocolEnvelope(self.sender_id, self._seq.next(), self._clock(), body)
        return seal(env, self._auth, peer)

    def channel(self, peer: str, address: Optional[Address] = None) -> PeerChannel:
        """The one channel to `peer`, made on first use.

        `address` is where its control connection goes; a peer that is only
        sent datagrams has none, and its channel serves for the lock.
        """
        # Look up first: setdefault would build a channel on every call.  It
        # is atomic, so racing callers on a miss still get the same channel.
        channel = self._channels.get(peer)
        if channel is None:
            channel = self._channels.setdefault(peer, PeerChannel(peer, address))
            if self._closed:
                channel.close()
        return channel

    def close(self) -> None:
        """Close every channel; a send on one fails from now on."""
        self._closed = True
        for channel in list(self._channels.values()):
            channel.close()


#: How long a channel fails at once after a failed connect before it dials
#: again, so a dead peer costs one connect attempt per interval.
RECONNECT_BACKOFF_S = 0.1
#: How long an accepted control connection may stay idle before the server
#: closes it.
IDLE_TIMEOUT_S = 30.0


class PeerChannel:
    """Everything one service sends to one peer, in sequence order.

    Receivers reject a sequence number at or below the last one they
    accepted from this sender, so envelopes to one peer must leave in the
    order their numbers were issued.  Hold `lock` from sealing an envelope
    until it is written (`exchange`, `write`, or a datagram send), and across the
    reply when awaiting one, so that replies are opened in order too.

    Control envelopes share one TCP connection to `address`, opened on first
    use and kept open.  Before a write the channel reconnects when the
    receiver has closed the connection (it reads as ready: EOF, or bytes no
    request asked for) or when it has been idle for half the receiver's
    idle timeout, so no write goes into a connection that is closing.  Any
    error closes the connection, so a late reply is never taken for the
    answer to a later request.  After a failed connect, sends fail at once
    for `RECONNECT_BACKOFF_S`.
    """

    def __init__(self, peer: str, address: Optional[Address] = None):
        self.peer = peer
        self.address = address
        self.lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._used_at = 0.0
        self._retry_at = 0.0
        self._closed = False

    def exchange(
        self, env: ProtocolEnvelope, await_reply: bool, timeout_s: float
    ) -> Optional[ProtocolEnvelope]:
        """Write `env` and, with `await_reply`, read one reply; hold `lock`."""
        return self.write((env,), timeout_s, await_reply)

    def write(self, envs: Sequence[ProtocolEnvelope], timeout_s: float,
              await_reply: bool = False) -> Optional[ProtocolEnvelope]:
        """Write `envs` back to back in one send and, with `await_reply`,
        read one reply; hold `lock` from sealing the first of them."""
        sock = self._connected(timeout_s)
        try:
            sock.settimeout(timeout_s)
            reply = exchange_on(sock, envs, await_reply)
        except (OSError, TransportError) as exc:
            self._disconnect()
            raise TransportError(f"{self.peer}: {exc}") from None
        self._used_at = time.monotonic()
        return reply

    def _connected(self, timeout_s: float) -> socket.socket:
        if self._closed:
            raise TransportError(f"{self.peer}: channel closed")
        now = time.monotonic()
        if self._sock is not None and (
            now - self._used_at > IDLE_TIMEOUT_S / 2 or _reads_ready(self._sock)
        ):
            self._disconnect()
        if self._sock is None:
            if now < self._retry_at:
                raise TransportError(f"{self.peer}: unreachable, retrying shortly")
            if self.address is None:
                raise TransportError(f"{self.peer}: no control address")
            try:
                sock = socket.create_connection(self.address, timeout=timeout_s)
            except OSError as exc:
                self._retry_at = now + RECONNECT_BACKOFF_S
                raise TransportError(f"{self.peer} at {self.address}: {exc}") from None
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def _disconnect(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def close(self) -> None:
        """Stop for good.  A send blocked on the connection is woken, and a
        later one fails."""
        self._closed = True
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        with self.lock:
            self._disconnect()


def _reads_ready(sock: socket.socket) -> bool:
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


#: How long a new control connection may take to deliver its first envelope.
FIRST_ENVELOPE_TIMEOUT_S = 1.0

#: Control handler: (envelope, reply) -> None.  `reply` sends one envelope
#: back on the same connection; pushes to third parties go out of band.
ControlHandler = Callable[[ProtocolEnvelope, Callable[[MessageBody], None]], None]


class _Inbound:
    """One accepted connection, with the bytes it has sent so far.

    A connection closed by its sender keeps its reader until the envelopes
    already received are handled; a dropped one has none.
    """

    __slots__ = ("sock", "reader", "deadline", "admitted", "active_at", "closed")

    def __init__(self, sock: socket.socket, now: float):
        self.sock = sock
        self.reader: Optional[FrameReader] = FrameReader()
        self.deadline = now + FIRST_ENVELOPE_TIMEOUT_S
        self.admitted = False  # its first envelope has been opened
        self.active_at = now
        self.closed = False


class ControlServer:
    """One thread that accepts control connections and feeds every
    authenticated envelope on them to a handler, one at a time.

    Envelopes on one connection are handled in the order they arrive.  The
    first envelope of each connection is handled in the order the
    connections were accepted, and a connection whose first envelope is not
    complete 1 s after it was accepted is closed.  A sender opens its next
    connection to a peer only after its last envelope on the previous one is
    written, so either way the replay check sees each sender's sequence
    numbers in the order they were issued.

    `end_of_round`, when given, runs after each round of the loop has handled
    the envelopes it read, so a handler may finish their work in one go.
    """

    def __init__(
        self,
        name: str,
        bind: Address,
        gate: InboundGate,
        handler: ControlHandler,
        factory: EnvelopeFactory,
        metrics: Metrics,
        logger: logging.Logger,
        sock: Optional[socket.socket] = None,
        clock: Callable[[], int] = now_ms,
        end_of_round: Optional[Callable[[], None]] = None,
    ):
        self._gate = gate
        self._handler = handler
        self._end_of_round = end_of_round
        self._factory = factory
        self._metrics = metrics
        self._logger = logger
        self._clock = clock
        if sock is not None:
            self._sock = sock
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                self._sock.bind(bind)
            except OSError as exc:
                self._sock.close()
                raise ServiceStartupError(f"{name}: control endpoint {bind} unavailable: {exc}") from None
        self._sock.listen(32)
        self._sock.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._sock, selectors.EVENT_READ)
        self._waiting: deque[_Inbound] = deque()  # not yet admitted, in accept order
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name=f"{name}-control", daemon=True)

    @property
    def address(self) -> Address:
        host, port = self._sock.getsockname()[:2]
        return (host, port)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop serving and close the listener and every accepted connection."""
        self._stop.set()
        if self._thread.ident is not None:
            self._thread.join(timeout=2)
        else:
            self._close_all()

    def _loop(self) -> None:
        try:
            while not self._stop.is_set():
                self._poll()
        finally:
            self._close_all()

    def _poll(self) -> None:
        now = time.monotonic()
        timeout = 0.2
        if self._waiting:
            timeout = min(timeout, max(0.0, self._waiting[0].deadline - now))
        accept = False
        for key, _ in self._selector.select(timeout):
            if key.data is None:
                accept = True
            else:
                self._read(key.data)
        # Accept after reading: bytes an earlier connection delivered are
        # handled before the first envelope of a later one.
        if accept:
            self._accept()
        self._admit()
        if self._end_of_round is not None:
            try:
                self._end_of_round()
            except Exception:
                self._metrics.incr("control.handler-error")
                self._logger.exception("end of round failed")
        self._close_idle()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._sock.accept()
            except (BlockingIOError, socket.timeout):
                return
            except OSError:
                self._logger.exception("accepting a control connection failed")
                self._stop.set()  # the listener is unusable: serve no more
                return
            # Reads happen only when the selector reports bytes; the timeout
            # bounds a reply's write.
            sock.settimeout(DEFAULT_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Inbound(sock, time.monotonic())
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self._waiting.append(conn)

    def _read(self, conn: _Inbound) -> None:
        try:
            data = conn.sock.recv(65536)
        except OSError:
            data = b""
        if not data:
            self._close(conn)  # what it sent before closing is still handled
        else:
            conn.reader.feed(data)
            conn.active_at = time.monotonic()
        if conn.admitted:
            self._deliver(conn)

    def _admit(self) -> None:
        """Handle first envelopes in accept order, up to the first
        connection whose first envelope is still on its way."""
        while self._waiting:
            conn = self._waiting[0]
            self._deliver(conn)
            if not conn.admitted and not conn.closed:
                if time.monotonic() < conn.deadline:
                    return
                self._drop(conn)
            self._waiting.popleft()

    def _deliver(self, conn: _Inbound) -> None:
        """Open and handle each complete envelope `conn` has delivered;
        drop the connection at the first one that fails."""
        while conn.reader is not None and not self._stop.is_set():
            try:
                env = conn.reader.next_envelope()
            except DecodeError as exc:
                self._metrics.incr("control.decode-error")
                log_event(self._logger, "decode-error", detail=exc)
                self._drop(conn)
                return
            except TransportError:
                self._metrics.incr("control.receive-error")
                self._drop(conn)
                return
            if env is None:
                return
            try:
                self._gate.open(env, self._clock())
            except OpenFailure as exc:
                self._metrics.incr("control.rejected")
                log_event(
                    self._logger, "envelope-rejected",
                    sender=env.sender_id, reason=type(exc).__name__,
                )
                self._drop(conn)
                return
            conn.admitted = True

            def reply(body: MessageBody, _sock=conn.sock, _peer=env.sender_id) -> None:
                send_envelope(_sock, self._factory.sealed(body, _peer))

            try:
                self._handler(env, reply)
            except Exception:
                self._metrics.incr("control.handler-error")
                self._logger.exception("handler failed for %s", env.msg_type.name)

    def _close_idle(self) -> None:
        cutoff = time.monotonic() - IDLE_TIMEOUT_S
        for key in list(self._selector.get_map().values()):
            conn = key.data
            if conn is not None and conn.admitted and conn.active_at < cutoff:
                self._close(conn)

    def _close(self, conn: _Inbound) -> None:
        if not conn.closed:
            conn.closed = True
            self._selector.unregister(conn.sock)
            conn.sock.close()

    def _drop(self, conn: _Inbound) -> None:
        """Close `conn` and discard whatever it sent that is not handled."""
        self._close(conn)
        conn.reader = None

    def _close_all(self) -> None:
        for key in list(self._selector.get_map().values()):
            if key.data is not None:
                self._close(key.data)
        self._waiting.clear()
        self._selector.close()
        self._sock.close()


class Service:
    """Lifecycle shell: logger, metrics, authenticator, clock.

    A subclass sets `_server`, its control server, in its constructor.
    """

    role = "service"

    def __init__(self, cfg: ServiceConfig, clock: Callable[[], int] = now_ms):
        self.cfg = cfg
        self.clock = clock
        self.logger = logging.getLogger(f"flowgate.{self.role}.{cfg.id}")
        self.metrics = Metrics()
        self.auth = build_authenticator(cfg)
        self.gate = InboundGate(self.auth, cfg.freshness_window_ms)
        self.factory = EnvelopeFactory(cfg.id, self.auth, clock)

    @property
    def control_address(self) -> Address:
        return self._server.address

    def start(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        """Close the outbound channels, which wakes a handler waiting on one,
        then stop the control server."""
        self.factory.close()
        self._server.stop()
        self.shutdown_dump()

    def shutdown_dump(self) -> dict[str, int]:
        dump = self.metrics.dump()
        log_event(self.logger, "metrics", **dump)
        return dump
