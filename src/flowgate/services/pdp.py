"""Policy decision point: evaluation, caching, and session fan-out.

Keeps a replica of the policy set (pulled completely at startup, patched by
incremental exchanges), derives decisions on demand, and answers two kinds
of questions: *access requests* from enforcement points, which trigger
session initializations at the requester and every nexthop enforcement
point, and *verification requests*, which return the decisions for a flow
without touching anyone's sessions.

One decision exists per policy at any time: derivations are cached per
policy id and reused until they expire or the policy changes.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..decisions import AccessDecision, default_decision, deny_decision, dynamic_authorization
from ..errors import AttributeResolutionError, TransportError
from ..patterns import FlowIndex, FlowPattern, MatchOp, PredicateKind, match_nested
from ..policy import FOREVER, AttributeBinding, Policy
from ..wire.auth import InboundGate, OpenFailure
from ..wire.messages import (
    AccessRequest,
    AccessVerificationRequest,
    AccessVerificationResponse,
    AttributeRequest,
    AttributeResolution,
    MessageBody,
    PolicyExchangeComplete,
    PolicyExchangeIncremental,
    PolicyExchangeRequest,
    ProtocolEnvelope,
    SessionInitialization,
    CrudOp,
)
from ..wire.transport import oneshot
from .base import ControlServer, EnvelopeFactory, PeerChannel, Service, log_event, now_ms
from .config import DepRegistryEntry, ServiceConfig


def apply_skew(valid_until: int, slack_ms: int) -> int:
    """Shrink a received expiry by the configured clock-skew slack."""
    if valid_until >= FOREVER:
        return valid_until
    return valid_until - slack_ms


def widen_start(valid_from: int, slack_ms: int) -> int:
    """Pull a received start-of-validity back by the clock-skew slack.

    The remote clock may run ahead of ours by up to the slack; without this
    a freshly minted value can look not-yet-valid for a millisecond or two
    and fail an evaluation closed for no real reason.
    """
    return max(0, valid_from - slack_ms)


class RemoteAttributeSource:
    """AttributeSource backed by the attribute service's wire interface."""

    def __init__(self, channel: PeerChannel, factory: EnvelopeFactory, gate: InboundGate,
                 clock: Callable[[], int], timeout_s: float, skew_ms: int):
        self._channel = channel
        self._factory = factory
        self._gate = gate
        self._clock = clock
        self._timeout = timeout_s
        self._skew = skew_ms
        self.calls = 0  # observable in tests and metrics

    def resolve(self, keys: frozenset[str]) -> dict[str, AttributeBinding]:
        self.calls += 1
        request = AttributeRequest(tuple(sorted(keys)))
        channel = self._channel
        try:
            with channel.lock:
                reply = oneshot(channel, self._factory.sealed(request, channel.peer),
                                await_reply=True, timeout_s=self._timeout)
                self._gate.open(reply, self._clock())
        except (TransportError, OpenFailure) as exc:
            raise AttributeResolutionError(str(exc)) from None
        if not isinstance(reply.body, AttributeResolution):
            raise AttributeResolutionError(f"unexpected reply {reply.msg_type.name}")
        out = {}
        for b in reply.body.bindings:
            out[b.key] = AttributeBinding(
                b.key, b.value,
                widen_start(b.valid_from, self._skew),
                apply_skew(b.valid_until, self._skew),
            )
        return out


class PdpService(Service):
    """One decision point.  Its replica, index and cache belong to its control
    loop: the complete pull at startup runs before the loop starts, and all
    else on the loop, one message at a time.  A derivation that asks the
    attribute service blocks the loop, so no policy change lands during it."""

    role = "pdp"

    def __init__(self, cfg: ServiceConfig, clock=None, control_sock=None,
                 attribute_source=None):
        super().__init__(cfg, clock or now_ms)
        self._policies: dict[str, Policy] = {}
        self._index = FlowIndex()  # every policy's flow, filed under its id
        self._revision = 0
        self._cache: dict[str, AccessDecision] = {}
        self._round: list[tuple[str, AccessRequest]] = []  # requests not yet answered
        self._server = ControlServer(
            cfg.id, cfg.listen_control or ("127.0.0.1", 0), self.gate, self._handle,
            self.factory, self.metrics, self.logger, sock=control_sock, clock=self.clock,
            end_of_round=self._answer_round,
        )
        if attribute_source is not None:
            self.attribute_source = attribute_source
        elif cfg.aasp is not None:
            self.attribute_source = RemoteAttributeSource(
                self.factory.channel(*cfg.aasp), self.factory, self.gate, self.clock,
                cfg.control_timeout_s, cfg.clock_skew_slack_ms,
            )
        else:
            self.attribute_source = _EmptySource()

    @property
    def revision(self) -> int:
        return self._revision

    def policies(self) -> list[Policy]:
        return list(self._policies.values())

    def start(self) -> None:
        """Pull the complete set, then start the loop.  The listener is bound
        already, so a push that arrives during the pull waits in its backlog."""
        if self.cfg.pasp is not None:
            self._pull_complete()
        self._server.start()
        log_event(self.logger, "started", control=self.control_address,
                  policies=len(self._policies), revision=self._revision)

    # -- policy replica ------------------------------------------------------

    def _pull_complete(self) -> None:
        channel = self.factory.channel(*self.cfg.pasp)
        try:
            with channel.lock:
                reply = oneshot(channel, self.factory.sealed(PolicyExchangeRequest(), channel.peer),
                                await_reply=True, timeout_s=self.cfg.control_timeout_s)
                self.gate.open(reply, self.clock())
        except (TransportError, OpenFailure) as exc:
            self.metrics.incr("exchange.pull-failed")
            log_event(self.logger, "complete-pull-failed", detail=exc)
            return
        if not isinstance(reply.body, PolicyExchangeComplete):
            return
        self._replace({p.id: p for p in reply.body.policies})
        self._revision = reply.body.revision
        self._cache.clear()
        self.metrics.incr("exchange.complete-pulled")
        log_event(self.logger, "complete-pull", policies=len(reply.body.policies),
                  revision=reply.body.revision)

    def _apply_incremental(self, body: PolicyExchangeIncremental) -> None:
        if body.revision <= self._revision:
            self.metrics.incr("exchange.stale-incremental")
            return
        gap = body.revision - self._revision > len(body.changes)
        for op, pid, policy in body.changes:
            if op is CrudOp.DELETE:
                self._file(pid, None)
            elif policy is not None:
                self._file(pid, policy)
            self._cache.pop(pid, None)
        self._revision = body.revision
        self.metrics.incr("exchange.incremental-applied")
        log_event(self.logger, "incremental-applied", changes=len(body.changes),
                  revision=body.revision)
        if gap and self.cfg.pasp is not None:
            # Missed at least one push; reconcile with the full set.
            self._pull_complete()

    def _replace(self, policies: dict[str, Policy]) -> None:
        """Make `policies` the replica and file each one in a new index."""
        self._policies = policies
        self._index = FlowIndex()
        for pid, policy in policies.items():
            self._index.add(policy.flow, pid)

    def _file(self, pid: str, policy: Optional[Policy]) -> None:
        """Put `policy` in the replica and the index under `pid`; None drops it."""
        old = self._policies.get(pid)
        if old is not None:
            self._index.remove(old.flow, pid)
        if policy is None:
            self._policies.pop(pid, None)
        else:
            self._policies[pid] = policy
            self._index.add(policy.flow, pid)

    # -- decisions -------------------------------------------------------------

    def _nexthop_for(self, policy: Policy) -> frozenset[str]:
        """Enforcement points protecting the flow's destination endpoints,
        with the policy's explicit list as the fallback."""
        wanted = _destination_predicates(policy.flow)
        if wanted:
            matched = frozenset(
                entry.dep_id
                for entry in self.cfg.registry.values()
                if _entry_matches(entry, wanted)
            )
            if matched:
                return matched
        return policy.nexthop_ids

    def _decisions_for(self, policies: list[Policy], now: int) -> list[AccessDecision]:
        """One decision per policy: the cached one while it outlives the skew
        slack, else a new derivation, which may ask the attribute service."""
        out = []
        for policy in policies:
            decision = self._cache.get(policy.id)
            # A decision that lapses within the DEPs' skew slack would be
            # dropped on arrival there, so it is derived again instead.
            if decision is not None and decision.valid_at(now + self.cfg.clock_skew_slack_ms):
                self.metrics.incr("decisions.cache-hit")
            else:
                decision = self._cache[policy.id] = dynamic_authorization(
                    [policy], self.attribute_source, now, self.cfg.catalog,
                    nexthop_resolver=self._nexthop_for, error_retry_ms=self.cfg.error_retry_ms,
                )[0]
                self.metrics.incr("decisions.derived")
            out.append(decision)
        return out

    # -- control handling --------------------------------------------------------

    def _handle(self, env: ProtocolEnvelope, reply: Callable[[MessageBody], None]) -> None:
        body = env.body
        if isinstance(body, AccessRequest):
            self._round.append((env.sender_id, body))
            return
        # Requests that came first are judged against the replica they came under.
        self._answer_round()
        if isinstance(body, PolicyExchangeIncremental):
            self._apply_incremental(body)
        elif isinstance(body, AccessVerificationRequest):
            reply(AccessVerificationResponse(tuple(self._verify_flow(body.flow))))
        elif isinstance(body, PolicyExchangeComplete):
            pass  # replies to our own pull arrive on the pull connection
        else:
            self.metrics.incr("control.unexpected-type")

    def _answer_round(self) -> None:
        """Decide the round's access requests, then answer them all at once."""
        if not self._round:
            return
        requests, self._round = self._round, []
        answers = []
        for requester, req in requests:
            try:
                answers.append((requester, self._handle_access_request(requester, req)))
            except Exception:
                self.metrics.incr("control.handler-error")
                self.logger.exception("access request from %s failed", requester)
        self._send_inits(answers)

    def _handle_access_request(self, requester: str, req: AccessRequest) -> list[AccessDecision]:
        """The decisions that answer one request from `requester`."""
        now = self.clock()
        candidates = (self._policies[pid] for pid in self._index.candidates(req.request))
        applicable = sorted(
            (p for p in candidates if match_nested(p.flow, req.request) is not None),
            key=lambda p: p.id,
        )
        decisions = self._decisions_for(applicable, now)
        self.metrics.incr("access-requests")
        if not decisions:
            decisions = [default_decision(req.request, now, self.cfg.default_deny_ttl_ms)]
            self.metrics.incr("decisions.default-deny")
        return decisions

    def _send_inits(self, answers: list[tuple[str, list[AccessDecision]]]) -> None:
        """Each nexthop first gets one initialization with the decisions of
        every request naming it, then each requester one with its own: a
        requester drains its buffered frames the moment its initialization
        lands, and those frames should find the receiving side provisioned."""
        nexthops, requesters = {}, {}  # dep id -> {id(decision): decision}
        for requester, decisions in answers:
            unique = {id(d): d for d in decisions}  # one derivation may serve many requests
            requesters.setdefault(requester, {}).update(unique)
            for dep_id in set().union(*(d.nexthop for d in decisions)) - {requester}:
                nexthops.setdefault(dep_id, {}).update(unique)
        for dep_id, decisions in [*sorted(nexthops.items()), *sorted(requesters.items())]:
            entry = self.cfg.registry.get(dep_id)
            if entry is None:
                self.metrics.incr("session-init.unknown-dep")
                log_event(self.logger, "unknown-dep", dep=dep_id)
                continue
            channel = self.factory.channel(dep_id, entry.control)
            init = SessionInitialization(tuple(decisions.values()))
            try:
                with channel.lock:
                    oneshot(channel, self.factory.sealed(init, dep_id),
                            await_reply=False, timeout_s=self.cfg.control_timeout_s)
                self.metrics.incr("session-init.sent")
                log_event(self.logger, "session-init", dep=dep_id, decisions=len(decisions))
            except TransportError as exc:
                self.metrics.incr("session-init.send-failed")
                log_event(self.logger, "session-init-failed", dep=dep_id, detail=exc)

    def _verify_flow(self, flow: FlowPattern) -> list[AccessDecision]:
        now = self.clock()
        key = flow.canonical_bytes()
        owners = [p for p in self._policies.values() if p.flow.canonical_bytes() == key]
        decisions = self._decisions_for(owners, now)
        self.metrics.incr("verifications")
        if decisions:
            return decisions
        return [deny_decision((flow,), now, now + self.cfg.default_deny_ttl_ms)]


class _EmptySource:
    calls = 0

    def resolve(self, keys: frozenset[str]) -> dict[str, AttributeBinding]:
        raise AttributeResolutionError("no attribute source configured")


def _destination_predicates(flow: FlowPattern) -> list[tuple[str, frozenset]]:
    """(kind, candidate values) for each destination-side equality predicate."""
    wanted: list[tuple[str, frozenset]] = []
    node = flow.root
    while node is not None:
        field = {"eth": "dst", "ipv4": "dst", "udp": "dstport", "tcp": "dstport"}.get(node.ident)
        if field is not None:
            for leaf in node.leaf_children():
                if leaf.kind is not PredicateKind.PARAMETRIC or leaf.ident != field:
                    continue
                if leaf.op is MatchOp.EQ:
                    wanted.append((node.ident, frozenset({leaf.operand})))
                elif leaf.op is MatchOp.IN_SET:
                    wanted.append((node.ident, leaf.operand))
        node = node.hierarchy_child()
    return wanted


def _entry_matches(entry: DepRegistryEntry, wanted: list[tuple[str, frozenset]]) -> bool:
    for layer, values in wanted:
        if layer == "eth":
            pool = entry.macs
        elif layer == "ipv4":
            pool = entry.ips
        else:
            pool = entry.ports
        if not any(v in pool for v in values):
            return False
    return True
