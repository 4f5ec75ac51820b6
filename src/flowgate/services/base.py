"""Shared service runtime: control server, metrics, envelope production."""

from __future__ import annotations

import logging
import socket
import threading
import time
from typing import Callable, Optional

from ..errors import ServiceStartupError
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
from ..wire.transport import Address, recv_envelope, send_envelope
from .config import ServiceConfig


def now_ms() -> int:
    return int(time.time() * 1000)


def log_event(logger: logging.Logger, event: str, **fields) -> None:
    """One structured line per event: ``event=... key=value ...``."""
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
    """Builds sealed envelopes for one sender identity."""

    def __init__(self, sender_id: str, auth: Authenticator, clock: Callable[[], int] = now_ms):
        self.sender_id = sender_id
        self._auth = auth
        self._seq = SequenceCounter()
        self._clock = clock
        self._peer_locks: dict[str, threading.Lock] = {}

    def sealed(self, body: MessageBody, peer: str) -> ProtocolEnvelope:
        env = ProtocolEnvelope(self.sender_id, self._seq.next(), self._clock(), body)
        return seal(env, self._auth, peer)

    def peer_lock(self, peer: str) -> threading.Lock:
        """Lock to hold across sealing and sending to `peer`.

        Receivers reject a sequence number at or below the last one they
        accepted from this sender, so envelopes to one peer must leave in
        the order their numbers were issued.  A request that awaits a reply
        holds it until the reply is opened, so replies are opened in order.
        """
        # dict.setdefault is atomic: racing callers get the same lock.
        return self._peer_locks.setdefault(peer, threading.Lock())


#: How long a new control connection may take to deliver its first envelope.
FIRST_ENVELOPE_TIMEOUT_S = 1.0

#: Control handler: (envelope, reply) -> None.  `reply` sends one envelope
#: back on the same connection; pushes to third parties go out of band.
ControlHandler = Callable[[ProtocolEnvelope, Callable[[MessageBody], None]], None]


class ControlServer:
    """TCP accept loop feeding authenticated envelopes to a handler."""

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
    ):
        self._name = name
        self._gate = gate
        self._handler = handler
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
        # A blocked accept() does not reliably wake when another thread
        # closes the socket; poll with a short timeout instead.
        self._sock.settimeout(0.2)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop, name=f"{name}-control", daemon=True)

    @property
    def address(self) -> Address:
        host, port = self._sock.getsockname()[:2]
        return (host, port)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        if self._thread.ident is not None:
            self._thread.join(timeout=2)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            # The first envelope is received and opened here, in accept
            # order.  A sender connects to a peer only after its previous
            # envelope to that peer is sent, so this order keeps each
            # sender's sequence numbers increasing at the replay check.
            # The deadline covers the whole envelope, so a peer trickling
            # bytes holds the loop no longer than a silent one.
            deadline = time.monotonic() + FIRST_ENVELOPE_TIMEOUT_S
            try:
                env = self._receive(conn, deadline)
            except Exception:
                # One connection must not end the accept loop.
                self._metrics.incr("control.receive-error")
                self._logger.exception("receiving a first envelope failed")
                env = None
            if env is None:
                conn.close()
                continue
            threading.Thread(
                target=self._serve, args=(conn, env), name=f"{self._name}-conn", daemon=True
            ).start()

    def _receive(
        self, conn: socket.socket, deadline: Optional[float] = None
    ) -> Optional[ProtocolEnvelope]:
        """The next envelope on `conn`, opened; None when the connection is done."""
        try:
            env = recv_envelope(conn, deadline)
        except DecodeError as exc:
            self._metrics.incr("control.decode-error")
            log_event(self._logger, "decode-error", detail=exc)
            return None
        except Exception:
            return None
        if env is None:
            return None
        try:
            self._gate.open(env, self._clock())
        except OpenFailure as exc:
            self._metrics.incr("control.rejected")
            log_event(
                self._logger, "envelope-rejected",
                sender=env.sender_id, reason=type(exc).__name__,
            )
            return None
        return env

    def _serve(self, conn: socket.socket, env: Optional[ProtocolEnvelope]) -> None:
        with conn:
            conn.settimeout(30)
            while env is not None and not self._stop.is_set():

                def reply(body: MessageBody, _conn=conn, _peer=env.sender_id) -> None:
                    send_envelope(_conn, self._factory.sealed(body, _peer))

                try:
                    self._handler(env, reply)
                except Exception:
                    self._metrics.incr("control.handler-error")
                    self._logger.exception("handler failed for %s", env.msg_type.name)
                env = self._receive(conn)


class Service:
    """Lifecycle shell: logger, metrics, authenticator, clock."""

    role = "service"

    def __init__(self, cfg: ServiceConfig, clock: Callable[[], int] = now_ms):
        self.cfg = cfg
        self.clock = clock
        self.logger = logging.getLogger(f"flowgate.{self.role}.{cfg.id}")
        self.metrics = Metrics()
        self.auth = build_authenticator(cfg)
        self.gate = InboundGate(self.auth, cfg.freshness_window_ms)
        self.factory = EnvelopeFactory(cfg.id, self.auth, clock)
        self._started = False

    def start(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    def shutdown_dump(self) -> dict[str, int]:
        dump = self.metrics.dump()
        log_event(self.logger, "metrics", **dump)
        return dump
