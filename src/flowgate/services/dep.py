"""Decision enforcement point: inline capture, enforcement, and delivery.

Sits bump-in-the-wire in front of one protected device.  In harness mode
(the default, used by all tests and benchmarks) the wire is a pair of local
datagram sockets: the *capture* socket stands in for the device-facing NIC
and receives the device's raw frames; delivered frames are sent to the
configured *deliver* address.  The *data* socket faces the other
enforcement points and carries sealed payload exchange requests.

Egress: bypass rules first, then decision lookup; granted frames are sealed
and forwarded to every nexthop enforcement point, denied frames are
dropped, and frames without a decision are buffered (bounded, FIFO) while a
single access request per flow is outstanding.  Ingress: authenticate, then
enforce; only a granting decision naming this enforcement point delivers
the inner frame, bit-exact, to the protected device.  Authentication always
precedes authorization.
"""

from __future__ import annotations

import queue
import socket
import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..decisions import AccessDecision, DecisionStore, Verdict, deny_decision, enforce, select_decision
from ..errors import DissectionError, ServiceStartupError, TransportError
from ..patterns import AccessRequestPattern, FlowPattern, Specificity, is_more_specific, match_nested
from ..policy import Action
from ..wire import messages  # called as module attributes, which perfbench traces
from ..wire.auth import AuthFailure, OpenFailure, ReplayFailure, StaleTimestampFailure
from ..wire.codec import DecodeError
from ..wire.messages import (
    AccessRequest,
    AccessVerificationRequest,
    AccessVerificationResponse,
    MessageBody,
    PayloadExchangeRequest,
    ProtocolEnvelope,
    SessionInitialization,
)
from ..wire.transport import Address, oneshot
from ..frames import dissect
from .base import ControlServer, Service, log_event, now_ms
from .config import ServiceConfig
from .pdp import apply_skew

_MAX_DATAGRAM = 65535


@dataclass
class _Pending:
    request: AccessRequestPattern
    frames: deque
    last_request_ms: int = -(10**12)


class DepService(Service):
    role = "dep"

    def __init__(self, cfg: ServiceConfig, clock=None, control_sock=None,
                 data_sock: Optional[socket.socket] = None,
                 capture_sock: Optional[socket.socket] = None):
        super().__init__(cfg, clock or now_ms)
        self.egress_decisions = DecisionStore(_judge)
        self.ingress_decisions = DecisionStore(_judge)
        self._pending: dict[tuple, _Pending] = {}
        self._pending_lock = threading.Lock()
        self._stop = threading.Event()
        # Access requests wait here for the writer, so no frame-handling
        # thread ever blocks on the PDP's connection.
        self._requests: queue.SimpleQueue = queue.SimpleQueue()
        self._writer: Optional[threading.Thread] = None

        self._server = ControlServer(
            cfg.id, cfg.listen_control or ("127.0.0.1", 0), self.gate, self._handle_control,
            self.factory, self.metrics, self.logger, sock=control_sock, clock=self.clock,
        )
        self._data_sock = data_sock or _bind_udp(cfg.listen_data or ("127.0.0.1", 0), cfg.id, "data")
        self._raw_capture = cfg.capture_interface is not None and capture_sock is None
        if self._raw_capture:
            self._capture_sock = _bind_raw(cfg.capture_interface, cfg.id)
        else:
            self._capture_sock = capture_sock or _bind_udp(
                cfg.device_capture or ("127.0.0.1", 0), cfg.id, "device-capture"
            )
        # recvfrom() does not reliably wake when stop() closes the socket
        # from another thread; poll instead.
        self._data_sock.settimeout(0.2)
        self._capture_sock.settimeout(0.2)
        self._threads = [
            threading.Thread(target=self._capture_loop, name=f"{cfg.id}-capture", daemon=True),
            threading.Thread(target=self._data_loop, name=f"{cfg.id}-data", daemon=True),
        ]

    # -- lifecycle -----------------------------------------------------------

    @property
    def data_address(self) -> Address:
        return self._data_sock.getsockname()[:2]

    @property
    def capture_address(self):
        if self._raw_capture:
            return self.cfg.capture_interface
        return self._capture_sock.getsockname()[:2]

    def start(self) -> None:
        self._server.start()
        for t in self._threads:
            t.start()
        log_event(self.logger, "started", control=self.control_address,
                  data=self.data_address, capture=self.capture_address)

    def stop(self) -> None:
        with self._pending_lock:
            self._stop.set()  # under the lock: no writer starts after this
        self._requests.put(None)
        super().stop()
        for sock in (self._data_sock, self._capture_sock):
            try:
                sock.close()
            except OSError:
                pass
        for t in self._threads + [self._writer]:
            if t is not None and t.ident is not None:
                t.join(timeout=2)

    # -- socket loops ----------------------------------------------------------

    def _capture_loop(self) -> None:
        while not self._stop.is_set():
            try:
                frame, _ = self._capture_sock.recvfrom(_MAX_DATAGRAM)
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                self.handle_egress_frame(frame, self.clock())
            except Exception:
                # the data path must survive any single bad frame or
                # misconfigured peer
                self.metrics.incr("egress.handler-error")
                self.logger.exception("egress handling failed")

    def _data_loop(self) -> None:
        while not self._stop.is_set():
            try:
                datagram, _ = self._data_sock.recvfrom(_MAX_DATAGRAM)
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                self.handle_datagram(datagram, self.clock())
            except Exception:
                self.metrics.incr("ingress.handler-error")
                self.logger.exception("ingress handling failed")

    # -- egress -----------------------------------------------------------------

    def handle_egress_frame(self, frame: bytes, now: int) -> None:
        try:
            request = dissect(frame, self.cfg.dissection)
        except DissectionError:
            self.metrics.incr("egress.dissect-error")
            return
        if self._bypass_matches("egress", request):
            self._forward_bypass(frame)
            return
        self._enforce_egress(frame, request, now)

    def _bypass_matches(self, direction: str, request: AccessRequestPattern) -> bool:
        return any(
            rule.applies(direction) and match_nested(rule.flow, request) is not None
            for rule in self.cfg.bypass_rules
        )

    def _enforce_egress(self, frame: bytes, request: AccessRequestPattern, now: int) -> None:
        verdict = (self.egress_decisions.verdict(request, now)
                   or self._buffer_and_request(frame, request, now))
        if verdict is None:
            return  # buffered
        if verdict[0] is Action.GRANT:
            self._forward_granted(frame, verdict[1])
        else:
            self.metrics.incr("egress.denied")

    def _forward_granted(self, frame: bytes, nexthops: frozenset[str]) -> None:
        body = PayloadExchangeRequest(frame)
        for dep_id in sorted(nexthops):
            entry = self.cfg.registry.get(dep_id)
            if entry is None:
                self.metrics.incr("egress.unknown-nexthop")
                log_event(self.logger, "unknown-nexthop", dep=dep_id)
                continue
            with self.factory.channel(dep_id).lock:
                datagram = messages.encode_envelope(self.factory.sealed(body, dep_id))
                try:
                    self._data_sock.sendto(datagram, entry.data)
                    self.metrics.incr("egress.forwarded")
                except OSError:
                    self.metrics.incr("egress.send-failed")

    def _forward_bypass(self, frame: bytes) -> None:
        # Bypassed frames go out raw and unauthenticated to every other
        # enforcement point, mirroring multicast of unprotected protocols.
        self.metrics.incr("egress.bypassed")
        for entry in self.cfg.registry.values():
            if entry.dep_id == self.cfg.id:
                continue
            try:
                self._data_sock.sendto(frame, entry.data)
            except OSError:
                self.metrics.incr("egress.send-failed")

    def _buffer_and_request(self, frame: bytes, request: AccessRequestPattern, now: int) -> Optional[Verdict]:
        key = request.key()
        with self._pending_lock:
            pending = self._pending.get(key)
            if pending is None:
                # Under the drain's lock: the flow may have been decided, and
                # drained, since the caller found no verdict.
                verdict = self.egress_decisions.verdict(request, now)
                if verdict is not None:
                    return verdict
                pending = _Pending(request, deque())
                self._pending[key] = pending
            if len(pending.frames) >= self.cfg.buffer_limit:
                pending.frames.popleft()
                self.metrics.incr("egress.buffer-overflow")
            pending.frames.append(frame)
            self.metrics.incr("egress.buffered")
            if now - pending.last_request_ms < self.cfg.request_timeout_ms:
                return None
            pending.last_request_ms = now
            self.metrics.incr("egress.access-request")
            self._requests.put(request)
            if self._writer is None and not self._stop.is_set():
                # Started on first use, so a DEP driven through its
                # handlers without start() still sends.
                self._writer = threading.Thread(
                    target=self._write_requests, name=f"{self.cfg.id}-writer", daemon=True,
                )
                self._writer.start()

    def _write_requests(self) -> None:
        """Send queued access requests, in order, until stop() queues None."""
        while (request := self._requests.get()) is not None:
            self._send_access_request(request)

    def _send_access_request(self, request: AccessRequestPattern) -> None:
        if self.cfg.pdp is None:
            self.metrics.incr("egress.no-pdp")
            return
        channel = self.factory.channel(*self.cfg.pdp)
        try:
            with channel.lock:
                oneshot(channel, self.factory.sealed(AccessRequest(request), channel.peer),
                        await_reply=False, timeout_s=self.cfg.control_timeout_s)
            log_event(self.logger, "access-request", pdp=channel.peer)
        except TransportError as exc:
            self.metrics.incr("egress.request-failed")
            log_event(self.logger, "access-request-failed", detail=exc)

    # -- ingress -----------------------------------------------------------------

    def handle_datagram(self, datagram: bytes, now: int) -> None:
        try:
            env = messages.decode_envelope(datagram)
        except DecodeError:
            self._handle_raw_ingress(datagram)
            return
        try:
            self.gate.open(env, now)
        except AuthFailure:
            self.metrics.incr("ingress.auth-failure")
            return
        except ReplayFailure:
            self.metrics.incr("ingress.replay")
            return
        except StaleTimestampFailure:
            self.metrics.incr("ingress.stale-timestamp")
            return
        except OpenFailure:
            self.metrics.incr("ingress.rejected")
            return
        if not isinstance(env.body, PayloadExchangeRequest):
            self.metrics.incr("ingress.unexpected-type")
            return
        self._enforce_ingress(env.body.frame, now)

    def _handle_raw_ingress(self, datagram: bytes) -> None:
        try:
            request = dissect(datagram, self.cfg.dissection)
        except DissectionError:
            self.metrics.incr("ingress.undecodable")
            return
        if self._bypass_matches("ingress", request):
            self.metrics.incr("ingress.bypassed")
            self._deliver(datagram)
            return
        self.metrics.incr("ingress.undecodable")

    def _enforce_ingress(self, frame: bytes, now: int) -> None:
        try:
            request = dissect(frame, self.cfg.dissection)
        except DissectionError:
            self.metrics.incr("ingress.dissect-error")
            return
        verdict = self.ingress_decisions.verdict(request, now)
        if verdict is None:
            # The sender's side initiates authorization; receivers just drop.
            self.metrics.incr("ingress.no-decision")
        elif verdict[0] is Action.GRANT and self.cfg.id in verdict[1]:
            self._deliver(frame)
            self.metrics.incr("ingress.delivered")
        else:
            self.metrics.incr("ingress.denied")

    def _deliver(self, frame: bytes) -> None:
        try:
            if self._raw_capture:
                self._capture_sock.send(frame)  # back out the device-side wire
                return
            if self.cfg.device_deliver is None:
                self.metrics.incr("ingress.no-deliver-address")
                return
            self._capture_sock.sendto(frame, self.cfg.device_deliver)
        except OSError:
            self.metrics.incr("ingress.deliver-failed")

    # -- session initialization ----------------------------------------------------

    def _handle_control(self, env: ProtocolEnvelope, reply: Callable[[MessageBody], None]) -> None:
        if not isinstance(env.body, SessionInitialization):
            self.metrics.incr("control.unexpected-type")
            return
        decisions = env.body.decisions
        now = self.clock()
        if self.cfg.verifier_pdp is not None:
            conflicted = self.verify_session(decisions, now)
            if conflicted is not None:
                self.metrics.incr("session.verification-conflict")
                log_event(self.logger, "session-conflict", flows=len(conflicted))
                for flow in conflicted:
                    fallback = deny_decision((flow,), now, now + self.cfg.default_deny_ttl_ms)
                    self.ingress_decisions.install(fallback)
                    self.egress_decisions.install(fallback)
                return
        self.install_decisions(decisions, now)

    def install_decisions(self, decisions: tuple[AccessDecision, ...], now: int) -> None:
        installed = 0
        for decision in decisions:
            capped = apply_skew(decision.valid_until, self.cfg.clock_skew_slack_ms)
            if capped < decision.valid_from or capped < now:
                self.metrics.incr("session.expired-on-arrival")
                continue
            decision = replace(decision, valid_until=capped)
            if self.cfg.id in decision.nexthop:
                self.ingress_decisions.install(decision)
                installed += 1
            if self._matches_pending(decision) or self.cfg.id not in decision.nexthop:
                self.egress_decisions.install(decision)
                installed += 1
        self.metrics.incr("session.installed", installed)
        log_event(self.logger, "session-installed", decisions=len(decisions))
        self._drain_pending(now)

    def _matches_pending(self, decision: AccessDecision) -> bool:
        with self._pending_lock:
            pendings = list(self._pending.values())
        return any(decision.matching_flows(p.request) for p in pendings)

    def _drain_pending(self, now: int) -> None:
        with self._pending_lock:
            decided = self.egress_decisions.verdict
            ready = [key for key, p in self._pending.items() if decided(p.request, now) is not None]
            drained = [self._pending.pop(key) for key in ready]
        for pending in drained:
            log_event(self.logger, "drain", frames=len(pending.frames))
            while pending.frames:
                frame = pending.frames.popleft()
                self._enforce_egress(frame, pending.request, self.clock())

    # -- optional session verification ------------------------------------------------

    def verify_session(
        self, decisions: tuple[AccessDecision, ...], now: int
    ) -> Optional[list[FlowPattern]]:
        """Cross-check an initialization against a second decision point.

        Returns None to accept, or the list of conflicted flows.  A decision
        conflicts when the verifier reports a different action or nexthop
        set for an overlapping flow; an unreachable verifier counts as a
        conflict unless fail-open is configured.
        """
        channel = self.factory.channel(*self.cfg.verifier_pdp)
        conflicted: list[FlowPattern] = []
        for decision in decisions:
            for flow in decision.flows:
                try:
                    with channel.lock:
                        reply = oneshot(
                            channel,
                            self.factory.sealed(AccessVerificationRequest(flow), channel.peer),
                            await_reply=True, timeout_s=self.cfg.control_timeout_s,
                        )
                        self.gate.open(reply, self.clock())
                except (TransportError, OpenFailure) as exc:
                    if self.cfg.verify_fail_open:
                        log_event(self.logger, "verify-unreachable-accept", detail=exc)
                        continue
                    log_event(self.logger, "verify-unreachable-conflict", detail=exc)
                    conflicted.append(flow)
                    continue
                if not isinstance(reply.body, AccessVerificationResponse):
                    conflicted.append(flow)
                    continue
                if any(
                    _overlapping(flow, remote) and _differs(decision, remote_decision)
                    for remote_decision in reply.body.decisions
                    for remote in remote_decision.flows
                ):
                    conflicted.append(flow)
        return conflicted or None


def _judge(valid: list[AccessDecision], request: AccessRequestPattern, now: int) -> Verdict:
    # Through this module's bindings, which perfbench traces on a memo miss.
    return enforce(select_decision(valid, request), request, now)


def _overlapping(a: FlowPattern, b: FlowPattern) -> bool:
    return is_more_specific(a, b) is not Specificity.CONFLICTING


def _differs(a: AccessDecision, b: AccessDecision) -> bool:
    return a.action is not b.action or a.nexthop != b.nexthop


def _bind_udp(addr: Address, service_id: str, what: str) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind(addr)
    except OSError as exc:
        sock.close()
        raise ServiceStartupError(f"{service_id}: {what} endpoint {addr} unavailable: {exc}") from None
    return sock


def _bind_raw(interface: str, service_id: str) -> socket.socket:
    """Device-facing wire capture on a real interface (needs CAP_NET_RAW)."""
    eth_p_all = 0x0003
    try:
        sock = socket.socket(socket.AF_PACKET, socket.SOCK_RAW, socket.htons(eth_p_all))
        sock.bind((interface, 0))
    except (AttributeError, OSError, PermissionError) as exc:
        raise ServiceStartupError(
            f"{service_id}: raw capture on {interface!r} unavailable: {exc}"
        ) from None
    return sock
