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

_OPEN_FAILURES = {AuthFailure: "ingress.auth-failure", ReplayFailure: "ingress.replay",
                  StaleTimestampFailure: "ingress.stale-timestamp"}


@dataclass
class _Pending:
    request: AccessRequestPattern
    frames: deque
    last_request_ms: int = -(10**12)


class DepService(Service):
    """One enforcement point, run on its control server's loop, which also
    reads the capture and data sockets: each control envelope is installed
    before any datagram that arrived after it is enforced.  Access requests
    and session verification wait on a peer, so they run on one worker."""

    role = "dep"

    def __init__(self, cfg: ServiceConfig, clock=None, control_sock=None,
                 data_sock: Optional[socket.socket] = None,
                 capture_sock: Optional[socket.socket] = None):
        super().__init__(cfg, clock or now_ms)
        self.egress_decisions = DecisionStore(_judge)
        self.ingress_decisions = DecisionStore(_judge)
        self._pending: dict[tuple, _Pending] = {}
        # Access requests and verifications wait here for the worker.
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._worker = threading.Thread(target=self._work, name=f"{cfg.id}-worker", daemon=True)

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
        # Looked up per call, so a wrapper set on the class later (perfbench's tracer) sees them.
        watch = self._server.watch
        watch(self._capture_sock, lambda *a: self.handle_egress_frame(*a), "egress.handler-error")
        watch(self._data_sock, lambda *a: self.handle_datagram(*a), "ingress.handler-error")

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
        log_event(self.logger, "started", control=self.control_address,
                  data=self.data_address, capture=self.capture_address)

    def stop(self) -> None:
        super().stop()  # wakes a worker blocked on a channel, ends the loop, closes its sockets
        self._jobs.put(None)  # a worker started after this exits at once
        if self._worker.ident is not None:
            self._worker.join(timeout=2)

    # -- egress -----------------------------------------------------------------

    def handle_egress_frame(self, frame: bytes, now: int) -> None:
        try:
            request = dissect(frame, self.cfg.dissection)
        except DissectionError:
            self.metrics.incr("egress.dissect-error")
            return
        if self.cfg.bypass_rules and self._bypass_matches("egress", request):
            self._forward_bypass(frame)
            return
        self._enforce_egress(frame, request, now)

    def _bypass_matches(self, direction: str, request: AccessRequestPattern) -> bool:
        return any(
            rule.applies(direction) and match_nested(rule.flow, request) is not None
            for rule in self.cfg.bypass_rules
        )

    def _enforce_egress(self, frame: bytes, request: AccessRequestPattern, now: int) -> None:
        verdict = self.egress_decisions.verdict(request, now)
        if verdict is None:
            self._buffer_and_request(frame, request, now)
        elif verdict[0] is Action.GRANT:
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

    def _buffer_and_request(self, frame: bytes, request: AccessRequestPattern, now: int) -> None:
        key = request.key()
        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = _Pending(request, deque())
        if len(pending.frames) >= self.cfg.buffer_limit:
            pending.frames.popleft()
            self.metrics.incr("egress.buffer-overflow")
        pending.frames.append(frame)
        self.metrics.incr("egress.buffered")
        if now - pending.last_request_ms < self.cfg.request_timeout_ms:
            return
        pending.last_request_ms = now
        self.metrics.incr("egress.access-request")
        self._submit(request)

    def _submit(self, job) -> None:
        """Queue an access request, or a callable, for the worker."""
        self._jobs.put(job)
        if self._worker.ident is None:
            # Started on first use: a DEP driven through its handlers without start() still sends.
            self._worker.start()

    def _work(self) -> None:
        """Run queued jobs in order until stop() queues None.  Access
        requests queued back to back leave in one write."""
        batch: list[AccessRequestPattern] = []
        while True:
            job = self._jobs.get()
            if isinstance(job, AccessRequestPattern):
                batch.append(job)
                if not self._jobs.empty():
                    continue
            if batch:  # before the job behind it, which may block
                self._send_access_requests(batch)
                batch = []
            if job is None:
                return
            if callable(job):
                self._server.guarded("control.handler-error", job)

    def _send_access_requests(self, batch: list[AccessRequestPattern]) -> None:
        if self.cfg.pdp is None:
            self.metrics.incr("egress.no-pdp", len(batch))
            return
        channel = self.factory.channel(*self.cfg.pdp)
        try:
            with channel.lock:
                channel.write([self.factory.sealed(AccessRequest(request), channel.peer)
                               for request in batch], self.cfg.control_timeout_s)
            log_event(self.logger, "access-request", pdp=channel.peer, requests=len(batch))
        except TransportError as exc:
            self.metrics.incr("egress.request-failed", len(batch))
            log_event(self.logger, "access-request-failed", requests=len(batch), detail=exc)

    # -- ingress -----------------------------------------------------------------

    def handle_datagram(self, datagram: bytes, now: int) -> None:
        try:
            env = messages.decode_envelope(datagram)
        except DecodeError:
            self._handle_raw_ingress(datagram)
            return
        try:
            self.gate.open(env, now)
        except OpenFailure as exc:
            self.metrics.incr(_OPEN_FAILURES.get(type(exc), "ingress.rejected"))
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
        if self.cfg.verifier_pdp is None:
            self.install_decisions(decisions, self.clock())
        else:
            self._submit(lambda: self._verify(decisions))

    def _verify(self, decisions: tuple[AccessDecision, ...]) -> None:
        """On the worker: verify `decisions`, then have the loop install them."""
        conflicted = self.verify_session(decisions, self.clock())
        self._server.post(lambda: self._install_verified(decisions, conflicted))

    def _install_verified(self, decisions: tuple[AccessDecision, ...],
                          conflicted: list[FlowPattern]) -> None:
        """Install the unconflicted decisions and a default denial per conflicted flow; drain once."""
        now = self.clock()
        if conflicted:
            self.metrics.incr("session.verification-conflict")
            log_event(self.logger, "session-conflict", flows=len(conflicted))
            for flow in conflicted:
                fallback = deny_decision((flow,), now, now + self.cfg.default_deny_ttl_ms)
                self.ingress_decisions.install(fallback)
                self.egress_decisions.install(fallback)
            decisions = tuple(d for d in decisions if set(d.flows).isdisjoint(conflicted))
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
            if self.cfg.id not in decision.nexthop or self._matches_pending(decision):
                self.egress_decisions.install(decision)
                installed += 1
        self.metrics.incr("session.installed", installed)
        log_event(self.logger, "session-installed", decisions=len(decisions))
        self._drain_pending(now)

    def _matches_pending(self, decision: AccessDecision) -> bool:
        return any(decision.matching_flows(p.request) for p in self._pending.values())

    def _drain_pending(self, now: int) -> None:
        decided = self.egress_decisions.verdict
        ready = [key for key, p in self._pending.items() if decided(p.request, now) is not None]
        for pending in [self._pending.pop(key) for key in ready]:
            log_event(self.logger, "drain", frames=len(pending.frames))
            while pending.frames:
                frame = pending.frames.popleft()
                self._enforce_egress(frame, pending.request, self.clock())

    # -- optional session verification ------------------------------------------------

    def verify_session(
        self, decisions: tuple[AccessDecision, ...], now: int
    ) -> list[FlowPattern]:
        """Cross-check an initialization against a second decision point.

        Returns the conflicted flows, none to accept.  A decision
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
                        request = self.factory.sealed(AccessVerificationRequest(flow), channel.peer)
                        reply = oneshot(channel, request, await_reply=True,
                                        timeout_s=self.cfg.control_timeout_s)
                        self.gate.open(reply, self.clock())
                except (TransportError, OpenFailure) as exc:
                    fail_open = self.cfg.verify_fail_open
                    log_event(self.logger, "verify-unreachable-accept" if fail_open
                              else "verify-unreachable-conflict", detail=exc)
                    if not fail_open:
                        conflicted.append(flow)
                    continue
                if not isinstance(reply.body, AccessVerificationResponse) or any(
                    _overlapping(flow, remote) and _differs(decision, remote_decision)
                    for remote_decision in reply.body.decisions
                    for remote in remote_decision.flows
                ):
                    conflicted.append(flow)
        return conflicted


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
