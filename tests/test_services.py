"""Service behavior: CRUD and distribution, attribute resolution, access
request fan-out, and enforcement-point data-path rules."""

import logging
import os
import socket
import sys
import threading
import time

import pytest

from flowgate.decisions import AccessDecision, DecisionStore, deny_decision
from flowgate.frames import dissect, goose_frame, udp_frame
from flowgate.pattern_text import parse_pattern
from flowgate.errors import TransportError
from flowgate.policy import (
    Action, AttributeKey, Comparison, CompareOp, Policy, predicate,
)
from flowgate.services.aasp import AaspService
from flowgate.services.base import (
    FIRST_ENVELOPE_TIMEOUT_S, ControlServer, EnvelopeFactory, Metrics,
)
from flowgate.services.config import BypassRule, DepRegistryEntry, ServiceConfig
from flowgate.services.dep import DepService, kernel_drops
from flowgate.services.pasp import PaspService
from flowgate.services import pdp as pdp_module
from flowgate.services.pdp import PdpService
from flowgate.wire.auth import InboundGate, NoopAuthenticator, seal
from flowgate.wire.messages import (
    AccessRequest,
    AccessVerificationRequest,
    AccessVerificationResponse,
    AttributeRequest,
    AttributeResolution,
    CrudOp,
    CrudStatus,
    PayloadExchangeRequest,
    PolicyCrudRequest,
    PolicyExchangeComplete,
    PolicyExchangeIncremental,
    PolicyExchangeRequest,
    ProtocolEnvelope,
    SessionInitialization,
    decode_envelope,
    encode_envelope,
)
from flowgate.wire.transport import oneshot, recv_envelope, send_envelope, send_envelopes

NOOP = NoopAuthenticator()
CATALOG = {
    "mode": AttributeKey("mode", "string", time_variable=True),
    "site-id": AttributeKey("site-id", "string"),
}


def now_ms() -> int:
    return int(time.time() * 1000)


def admin_envelope(body, seq=None):
    seq = seq if seq is not None else time.monotonic_ns()
    return seal(ProtocolEnvelope("operator", seq, now_ms(), body), NOOP, "pasp")


class EnvelopeSink:
    """Minimal control endpoint that records everything it receives."""

    def __init__(self, responder=None):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.received = []
        self._responder = responder
        self._seq = 0
        self.connections = 0
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    @property
    def address(self):
        return self._sock.getsockname()[:2]

    def _loop(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        with conn:
            while True:
                try:
                    env = recv_envelope(conn)
                except Exception:
                    return
                if env is None:
                    return
                with self._lock:
                    self.received.append(env)
                if self._responder is not None:
                    body = self._responder(env)
                    if body is not None:
                        with self._lock:
                            self._seq += 1
                            reply = ProtocolEnvelope("stub", self._seq, now_ms(), body)
                        send_envelope(conn, seal(reply, NOOP, env.sender_id))

    def wait_for(self, count, timeout=3.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            with self._lock:
                if len(self.received) >= count:
                    return list(self.received)
            time.sleep(0.01)
        with self._lock:
            return list(self.received)

    def close(self):
        self._sock.close()


def trip_policy(pid="trip", nexthops=frozenset({"dep-b"})):
    return Policy(pid, Action.GRANT, parse_pattern("eth { goose { appid == 5 } }"),
                  nexthop_ids=nexthops)


@pytest.fixture
def pasp():
    sink = EnvelopeSink()
    cfg = ServiceConfig(id="pasp", admins=frozenset({"operator"}),
                        pdp_peers={"pdp-1": sink.address})
    service = PaspService(cfg)
    service.start()
    yield service, sink
    service.stop()
    sink.close()


class TestPaspCrud:
    def test_create_bumps_revision_and_pushes(self, pasp):
        service, sink = pasp
        reply = oneshot(service.control_address, admin_envelope(
            PolicyCrudRequest(CrudOp.CREATE, "trip", trip_policy())), await_reply=True)
        assert reply.body.status is CrudStatus.OK
        assert service.revision == 1
        pushed = sink.wait_for(1)
        assert len(pushed) == 1
        assert isinstance(pushed[0].body, PolicyExchangeIncremental)
        assert pushed[0].body.changes[0][0] is CrudOp.CREATE
        assert pushed[0].body.revision == 1

    def test_read_unknown_id(self, pasp):
        service, _ = pasp
        reply = oneshot(service.control_address,
                        admin_envelope(PolicyCrudRequest(CrudOp.READ, "ghost")), await_reply=True)
        assert reply.body.status is CrudStatus.NOT_FOUND

    def test_duplicate_create_rejected(self, pasp):
        service, _ = pasp
        for expect in (CrudStatus.OK, CrudStatus.DUPLICATE_ID):
            reply = oneshot(service.control_address, admin_envelope(
                PolicyCrudRequest(CrudOp.CREATE, "trip", trip_policy())), await_reply=True)
            assert reply.body.status is expect
        assert service.revision == 1

    def test_invalid_update_leaves_revision(self, pasp):
        service, _ = pasp
        oneshot(service.control_address, admin_envelope(
            PolicyCrudRequest(CrudOp.CREATE, "trip", trip_policy())), await_reply=True)
        bad = Policy("trip", Action.GRANT, parse_pattern("eth { mystery == 5 }"))
        reply = oneshot(service.control_address, admin_envelope(
            PolicyCrudRequest(CrudOp.UPDATE, "trip", bad)), await_reply=True)
        assert reply.body.status is CrudStatus.VALIDATION_FAILED
        assert reply.body.violations
        assert service.revision == 1

    def test_non_admin_rejected(self, pasp):
        service, _ = pasp
        env = seal(ProtocolEnvelope("intruder", 1, now_ms(),
                                    PolicyCrudRequest(CrudOp.READ, "trip")), NOOP, "pasp")
        reply = oneshot(service.control_address, env, await_reply=True)
        assert reply.body.status is CrudStatus.UNAUTHORIZED

    def test_complete_exchange_serves_everything(self, pasp):
        service, _ = pasp
        for pid in ("p1", "p2"):
            oneshot(service.control_address, admin_envelope(
                PolicyCrudRequest(CrudOp.CREATE, pid, trip_policy(pid))), await_reply=True)
        env = seal(ProtocolEnvelope("pdp-9", 1, now_ms(), PolicyExchangeRequest()), NOOP, "pasp")
        reply = oneshot(service.control_address, env, await_reply=True)
        assert isinstance(reply.body, PolicyExchangeComplete)
        assert {p.id for p in reply.body.policies} == {"p1", "p2"}
        assert reply.body.revision == 2

    def test_delete_then_empty_complete_exchange(self, pasp):
        service, _ = pasp
        oneshot(service.control_address, admin_envelope(
            PolicyCrudRequest(CrudOp.CREATE, "p1", trip_policy("p1"))), await_reply=True)
        oneshot(service.control_address, admin_envelope(
            PolicyCrudRequest(CrudOp.DELETE, "p1")), await_reply=True)
        env = seal(ProtocolEnvelope("pdp-9", 1, now_ms(), PolicyExchangeRequest()), NOOP, "pasp")
        reply = oneshot(service.control_address, env, await_reply=True)
        assert reply.body.policies == ()
        assert reply.body.revision == 2


class TestPaspPersistence:
    def test_store_survives_restart(self, tmp_path):
        store = str(tmp_path / "policies.bin")
        cfg = ServiceConfig(id="pasp", admins=frozenset({"operator"}), store_file=store)
        service = PaspService(cfg)
        service.start()
        oneshot(service.control_address, admin_envelope(
            PolicyCrudRequest(CrudOp.CREATE, "trip", trip_policy())), await_reply=True)
        service.stop()

        reborn = PaspService(ServiceConfig(id="pasp", admins=frozenset({"operator"}),
                                           store_file=store))
        reborn.start()
        assert [p.id for p in reborn.policies()] == ["trip"]
        assert reborn.revision == 1
        reborn.stop()


class TestAasp:
    @pytest.fixture
    def aasp(self):
        cfg = ServiceConfig(id="aasp", catalog=dict(CATALOG),
                            values={"mode": ("normal", 30_000), "site-id": ("s1", None)})
        service = AaspService(cfg)
        service.start()
        yield service
        service.stop()

    def request(self, service, keys):
        env = seal(ProtocolEnvelope("pdp-1", time.monotonic_ns(), now_ms(),
                                    AttributeRequest(keys)), NOOP, "aasp")
        reply = oneshot(service.control_address, env, await_reply=True)
        assert isinstance(reply.body, AttributeResolution)
        return reply.body

    def test_time_variable_key_gets_freshness_window(self, aasp):
        body = self.request(aasp, ("mode",))
        (binding,) = body.bindings
        assert binding.value == "normal"
        assert 0 < binding.valid_until - binding.valid_from <= 30_000

    def test_constant_key_never_expires(self, aasp):
        from flowgate.policy import FOREVER

        (binding,) = self.request(aasp, ("site-id",)).bindings
        assert binding.valid_until == FOREVER

    def test_unknown_key_marked_not_fatal(self, aasp):
        body = self.request(aasp, ("mode", "ghost"))
        assert [b.key for b in body.bindings] == ["mode"]
        assert body.unknown_keys == ("ghost",)

    def test_runtime_value_flip(self, aasp):
        aasp.set_value("mode", "maintenance")
        (binding,) = self.request(aasp, ("mode",)).bindings
        assert binding.value == "maintenance"


def _registry(dep_a_ctrl, dep_b_ctrl):
    return {
        "dep-a": DepRegistryEntry("dep-a", dep_a_ctrl, ("127.0.0.1", 1),
                                  frozenset({"02:00:00:00:00:01"}), frozenset({"10.0.0.1"}),
                                  frozenset({40000})),
        "dep-b": DepRegistryEntry("dep-b", dep_b_ctrl, ("127.0.0.1", 2),
                                  frozenset({"02:00:00:00:00:02"}), frozenset({"10.0.0.2"}),
                                  frozenset({40001})),
    }


class TestPdp:
    @pytest.fixture
    def stack(self):
        """PDP with two sink DEPs and a live AASP."""
        dep_a, dep_b = EnvelopeSink(), EnvelopeSink()
        aasp_cfg = ServiceConfig(id="aasp", catalog=dict(CATALOG),
                                 values={"mode": ("normal", 2_000)})
        aasp = AaspService(aasp_cfg)
        aasp.start()
        cfg = ServiceConfig(id="pdp-1", catalog=dict(CATALOG),
                            aasp=("aasp", aasp.control_address),
                            registry=_registry(dep_a.address, dep_b.address))
        pdp = PdpService(cfg)
        pdp.start()
        yield pdp, aasp, dep_a, dep_b
        pdp.stop()
        aasp.stop()
        dep_a.close()
        dep_b.close()

    def send_access_request(self, pdp, frame, sender="dep-a"):
        request = dissect(frame)
        env = seal(ProtocolEnvelope(sender, time.monotonic_ns(), now_ms(),
                                    AccessRequest(request)), NOOP, "pdp-1")
        oneshot(pdp.control_address, env, await_reply=False)
        return request

    GOOSE = goose_frame("02:00:00:00:00:01", "01:0c:cd:01:00:01", 5, b"t", pad_to=60)

    def test_no_policy_yields_default_deny_to_requester_only(self, stack):
        pdp, _, dep_a, dep_b = stack
        request = self.send_access_request(pdp, self.GOOSE)
        (env,) = dep_a.wait_for(1)
        assert isinstance(env.body, SessionInitialization)
        (decision,) = env.body.decisions
        assert decision.action is Action.DENY
        from flowgate.patterns import match_at_root

        assert match_at_root(decision.flows[0], request)
        time.sleep(0.1)
        assert dep_b.received == []

    def test_grant_fans_out_to_requester_and_nexthop(self, stack):
        pdp, _, dep_a, dep_b = stack
        pdp._replace({"trip": trip_policy()})
        self.send_access_request(pdp, self.GOOSE)
        (to_a,) = dep_a.wait_for(1)
        (to_b,) = dep_b.wait_for(1)
        for env in (to_a, to_b):
            (decision,) = env.body.decisions
            assert decision.action is Action.GRANT
            assert decision.nexthop == {"dep-b"}

    def test_cached_decision_skips_attribute_fetch(self, stack):
        pdp, _, dep_a, _ = stack
        aux = frozenset({predicate("a1", Comparison("mode", CompareOp.EQ, "normal"))})
        pdp._replace({"dyn": Policy("dyn", Action.GRANT,
                                    parse_pattern("eth { goose { appid == 5 } }"),
                                    aux, nexthop_ids=frozenset({"dep-b"}))})
        self.send_access_request(pdp, self.GOOSE)
        dep_a.wait_for(1)
        calls_after_first = pdp.attribute_source.calls
        assert calls_after_first >= 1
        self.send_access_request(pdp, self.GOOSE)
        dep_a.wait_for(2)
        assert pdp.attribute_source.calls == calls_after_first  # cache hit

    def test_decision_lapsing_within_the_skew_slack_is_derived_again(self, stack):
        pdp, _, _, _ = stack
        policy = Policy("short", Action.GRANT, parse_pattern("eth { goose { appid == 5 } }"),
                        static_max_validity=1_000, nexthop_ids=frozenset({"dep-b"}))
        pdp._replace({"short": policy})
        slack = pdp.cfg.clock_skew_slack_ms
        (first,) = pdp._decisions_for([policy], 10_000)
        assert first.valid_until == 11_000
        assert pdp._decisions_for([policy], 11_000 - slack) == [first]
        assert (pdp.metrics.get("decisions.derived"), pdp.metrics.get("decisions.cache-hit")) == (1, 1)
        (renewed,) = pdp._decisions_for([policy], 11_000 - slack + 1)
        assert renewed.valid_until == 12_000 - slack + 1
        assert (pdp.metrics.get("decisions.derived"), pdp.metrics.get("decisions.cache-hit")) == (2, 1)

    def test_static_policy_derivation_never_calls_resolver(self, stack):
        pdp, _, dep_a, _ = stack
        pdp._replace({"trip": trip_policy()})
        self.send_access_request(pdp, self.GOOSE)
        dep_a.wait_for(1)
        assert pdp.attribute_source.calls == 0

    def test_nexthop_resolved_from_registry_destination_match(self, stack):
        pdp, _, dep_a, dep_b = stack
        # no explicit nexthop ids: the registry must resolve them
        flow = parse_pattern('eth { ipv4 { dst == "10.0.0.2" udp { dstport == 40001 } } }')
        pdp._replace({"fwd": Policy("fwd", Action.GRANT, flow)})
        frame = udp_frame("02:00:00:00:00:01", "02:00:00:00:00:02",
                          "10.0.0.1", "10.0.0.2", 40000, 40001, b"12345678")
        self.send_access_request(pdp, frame)
        (to_b,) = dep_b.wait_for(1)
        (decision,) = to_b.body.decisions
        assert decision.nexthop == {"dep-b"}

    def test_verification_returns_decisions_without_sessions(self, stack):
        pdp, _, dep_a, dep_b = stack
        pdp._replace({"trip": trip_policy()})
        env = seal(ProtocolEnvelope("dep-a", time.monotonic_ns(), now_ms(),
                                    AccessVerificationRequest(trip_policy().flow)),
                   NOOP, "pdp-1")
        reply = oneshot(pdp.control_address, env, await_reply=True)
        assert isinstance(reply.body, AccessVerificationResponse)
        (decision,) = reply.body.decisions
        assert decision.action is Action.GRANT
        time.sleep(0.1)
        assert dep_a.received == [] and dep_b.received == []  # no side effects

    def test_verification_of_unknown_flow_denies(self, stack):
        pdp, _, _, _ = stack
        flow = parse_pattern("eth { sv { } }")
        env = seal(ProtocolEnvelope("dep-a", time.monotonic_ns(), now_ms(),
                                    AccessVerificationRequest(flow)), NOOP, "pdp-1")
        reply = oneshot(pdp.control_address, env, await_reply=True)
        (decision,) = reply.body.decisions
        assert decision.action is Action.DENY
        assert decision.flows == (flow,)

    def test_incremental_apply_and_delete(self, stack):
        pdp, _, _, _ = stack
        body = PolicyExchangeIncremental(((CrudOp.CREATE, "trip", trip_policy()),), 1)
        env = seal(ProtocolEnvelope("pasp", 1, now_ms(), body), NOOP, "pdp-1")
        oneshot(pdp.control_address, env, await_reply=False)
        deadline = time.time() + 2
        while time.time() < deadline and not pdp.policies():
            time.sleep(0.01)
        assert [p.id for p in pdp.policies()] == ["trip"]
        body = PolicyExchangeIncremental(((CrudOp.DELETE, "trip", None),), 2)
        env = seal(ProtocolEnvelope("pasp", 2, now_ms(), body), NOOP, "pdp-1")
        oneshot(pdp.control_address, env, await_reply=False)
        deadline = time.time() + 2
        while time.time() < deadline and pdp.policies():
            time.sleep(0.01)
        assert pdp.policies() == []
        assert pdp.revision == 2

    def push(self, pdp, revision, *changes):
        body = PolicyExchangeIncremental(tuple(changes), revision)
        env = seal(ProtocolEnvelope("pasp", revision, now_ms(), body), NOOP, "pdp-1")
        oneshot(pdp.control_address, env, await_reply=False)
        deadline = time.time() + 2
        while time.time() < deadline and pdp.revision < revision:
            time.sleep(0.01)
        assert pdp.revision == revision

    def test_incremental_update_and_delete_refile_the_index(self, stack):
        pdp, _, dep_a, _ = stack
        appid_6 = goose_frame("02:00:00:00:00:01", "01:0c:cd:01:00:01", 6, b"t", pad_to=60)
        moved = Policy("trip", Action.GRANT, parse_pattern("eth { goose { appid == 6 } }"),
                       nexthop_ids=frozenset({"dep-b"}))
        self.push(pdp, 1, (CrudOp.CREATE, "trip", trip_policy()))
        self.push(pdp, 2, (CrudOp.UPDATE, "trip", moved))
        assert pdp._index.candidates(dissect(self.GOOSE)) == []

        self.send_access_request(pdp, self.GOOSE)
        old = dep_a.wait_for(1)[-1].body.decisions
        assert [(d.action, d.origin_policy_ids) for d in old] == [(Action.DENY, frozenset())]
        self.send_access_request(pdp, appid_6)
        new = dep_a.wait_for(2)[-1].body.decisions
        assert [(d.action, d.origin_policy_ids) for d in new] == [(Action.GRANT, {"trip"})]

        self.push(pdp, 3, (CrudOp.DELETE, "trip", None))
        assert pdp._index.candidates(dissect(appid_6)) == []
        self.send_access_request(pdp, appid_6)
        gone = dep_a.wait_for(3)[-1].body.decisions
        assert [(d.action, d.origin_policy_ids) for d in gone] == [(Action.DENY, frozenset())]


class TestEnvelopeFactory:
    def test_racing_callers_share_one_channel_per_peer(self):
        factory = EnvelopeFactory("client", NOOP)
        peers = [f"peer-{i}" for i in range(200)]
        threads = 8
        start = threading.Barrier(threads)
        seen = []

        def grab():
            start.wait(timeout=10)
            seen.append([factory.channel(p) for p in peers])

        workers = [threading.Thread(target=grab) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert len(seen) == threads
        for locks in seen:
            assert all(mine is first for mine, first in zip(locks, seen[0]))
        assert all(factory.channel(p) is channel for p, channel in zip(peers, seen[0]))


class TestControlServer:
    def test_envelopes_sent_in_order_are_opened_in_order(self):
        # Senders seal and send under one lock, one connection per
        # envelope.  The server must open them in that order, or it rejects
        # a legitimate envelope as a replay.
        opened = []
        server = ControlServer("srv", ("127.0.0.1", 0), InboundGate(NOOP, 60_000),
                               lambda env, reply: opened.append(env.sequence),
                               EnvelopeFactory("srv", NOOP), Metrics(), logging.getLogger("test"))
        server.start()
        sender = EnvelopeFactory("client", NOOP)
        lock = threading.Lock()
        threads, per_thread = 4, 25

        def send():
            for _ in range(per_thread):
                with lock:
                    oneshot(server.address, sender.sealed(PolicyExchangeRequest(), "srv"),
                            await_reply=False)

        workers = [threading.Thread(target=send) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=20)
            deadline = time.time() + 5
            while time.time() < deadline and len(opened) < threads * per_thread:
                time.sleep(0.01)
        finally:
            sys.setswitchinterval(interval)
            server.stop()
        assert not any(w.is_alive() for w in workers)
        assert server._metrics.get("control.rejected") == 0
        assert len(opened) == threads * per_thread

    def test_silent_connection_is_closed_and_others_served(self):
        opened = []
        server = ControlServer("srv", ("127.0.0.1", 0), InboundGate(NOOP, 60_000),
                               lambda env, reply: opened.append(env.sequence),
                               EnvelopeFactory("srv", NOOP), Metrics(), logging.getLogger("test"))
        server.start()
        sender = EnvelopeFactory("client", NOOP)
        try:
            with socket.create_connection(server.address, timeout=5) as silent:
                oneshot(server.address, sender.sealed(PolicyExchangeRequest(), "srv"),
                        await_reply=False)
                assert silent.recv(1) == b""  # closed by the server, unanswered
            deadline = time.time() + 3
            while time.time() < deadline and not opened:
                time.sleep(0.01)
        finally:
            server.stop()
        assert len(opened) == 1

    def test_trickling_connection_does_not_hold_the_accept_loop(self):
        opened = []
        server = ControlServer("srv", ("127.0.0.1", 0), InboundGate(NOOP, 60_000),
                               lambda env, reply: opened.append(env.sequence),
                               EnvelopeFactory("srv", NOOP), Metrics(), logging.getLogger("test"))
        server.start()
        stop = threading.Event()
        slow = socket.create_connection(server.address, timeout=5)

        def trickle():
            # A 100-byte frame, one byte every 0.5 s: every receive returns
            # quickly, but the envelope would take 52 s to complete.
            for byte in (0, 0, 0, 100) + (0,) * 100:
                try:
                    slow.sendall(bytes([byte]))
                except OSError:
                    return
                if stop.wait(0.5):
                    return

        feeder = threading.Thread(target=trickle, daemon=True)
        feeder.start()
        time.sleep(0.2)  # the trickling connection is accepted first
        sender = EnvelopeFactory("client", NOOP)
        try:
            started = time.monotonic()
            oneshot(server.address, sender.sealed(PolicyExchangeRequest(), "srv"),
                    await_reply=False)
            deadline = started + 5
            while time.monotonic() < deadline and not opened:
                time.sleep(0.01)
            elapsed = time.monotonic() - started
        finally:
            stop.set()
            server.stop()
            feeder.join(5)
            slow.close()
        assert len(opened) == 1
        assert elapsed < FIRST_ENVELOPE_TIMEOUT_S + 0.5


class UdpCatcher:
    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(2.0)

    @property
    def address(self):
        return self.sock.getsockname()[:2]

    def recv(self):
        data, _ = self.sock.recvfrom(65535)
        return data

    def drain(self, max_wait=0.3):
        out = []
        self.sock.settimeout(max_wait)
        try:
            while True:
                out.append(self.recv())
        except socket.timeout:
            return out

    def close(self):
        self.sock.close()


def make_dep(catcher_b: UdpCatcher, deliver: UdpCatcher, pdp_sink: EnvelopeSink,
             **overrides) -> DepService:
    registry = {
        "dep-a": DepRegistryEntry("dep-a", ("127.0.0.1", 9), ("127.0.0.1", 9),
                                  frozenset({"02:00:00:00:00:01"}), frozenset({"10.0.0.1"}),
                                  frozenset({40000})),
        "dep-b": DepRegistryEntry("dep-b", ("127.0.0.1", 9), catcher_b.address,
                                  frozenset({"02:00:00:00:00:02"}), frozenset({"10.0.0.2"}),
                                  frozenset({40001})),
    }
    cfg = ServiceConfig(id="dep-a", pdp=("pdp-1", pdp_sink.address), registry=registry,
                        device_deliver=deliver.address, **overrides)
    return DepService(cfg)


GOOSE_FRAME = goose_frame("02:00:00:00:00:01", "01:0c:cd:01:00:01", 5, b"t", pad_to=60)
GOOSE_FLOW = "eth { goose { appid == 5 } }"


def grant_to_b(flow=GOOSE_FLOW, until_offset=60_000):
    now = now_ms()
    return AccessDecision((parse_pattern(flow),), Action.GRANT, frozenset({"dep-b"}),
                          now - 1000, now + until_offset, frozenset({"trip"}))


def grant_to_a(flow=GOOSE_FLOW, until_offset=60_000):
    now = now_ms()
    return AccessDecision((parse_pattern(flow),), Action.GRANT, frozenset({"dep-a"}),
                          now - 1000, now + until_offset, frozenset({"trip"}))


class TestDepEgress:
    @pytest.fixture
    def dep(self):
        catcher, deliver, pdp = UdpCatcher(), UdpCatcher(), EnvelopeSink()
        service = make_dep(catcher, deliver, pdp)
        yield service, catcher, deliver, pdp
        service.stop()
        pdp.close()
        catcher.close()
        deliver.close()

    def test_granted_frame_forwarded_sealed_per_nexthop(self, dep):
        service, catcher, _, _ = dep
        service.egress_decisions.install(grant_to_b())
        service.handle_egress_frame(GOOSE_FRAME, now_ms())
        env = decode_envelope(catcher.recv())
        assert isinstance(env.body, PayloadExchangeRequest)
        assert env.body.frame == GOOSE_FRAME
        assert service.metrics.get("egress.forwarded") == 1

    def test_two_nexthops_two_sealed_requests(self, dep):
        service, catcher, _, _ = dep
        second = UdpCatcher()
        registry = dict(service.cfg.registry)
        registry["dep-c"] = DepRegistryEntry("dep-c", ("127.0.0.1", 9), second.address)
        service.cfg.registry = registry
        now = now_ms()
        decision = AccessDecision((parse_pattern(GOOSE_FLOW),), Action.GRANT,
                                  frozenset({"dep-b", "dep-c"}), now - 1000, now + 60_000)
        service.egress_decisions.install(decision)
        service.handle_egress_frame(GOOSE_FRAME, now)
        try:
            for caught in (catcher, second):
                env = decode_envelope(caught.recv())
                assert env.body.frame == GOOSE_FRAME
        finally:
            second.close()
        assert service.metrics.get("egress.forwarded") == 2

    def test_concurrent_forwards_reach_the_peer_in_sequence_order(self, dep):
        # The peer drops any sequence at or below the last it accepted, so
        # threads forwarding to one peer must not reorder their envelopes.
        service, catcher, _, _ = dep
        service.egress_decisions.install(grant_to_b())
        threads, per_thread = 4, 50

        def forward():
            for _ in range(per_thread):
                service.handle_egress_frame(GOOSE_FRAME, now_ms())

        workers = [threading.Thread(target=forward) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        seqs = [decode_envelope(d).sequence for d in catcher.drain()]
        assert len(seqs) == threads * per_thread
        assert seqs == sorted(seqs)

    def test_denied_frame_dropped(self, dep):
        service, catcher, _, _ = dep
        service.egress_decisions.install(deny_decision(
            (parse_pattern(GOOSE_FLOW),), now_ms() - 1000, now_ms() + 60_000))
        service.handle_egress_frame(GOOSE_FRAME, now_ms())
        assert catcher.drain() == []
        assert service.metrics.get("egress.denied") == 1

    def test_no_decision_buffers_and_requests_once(self, dep):
        service, catcher, _, pdp = dep
        now = now_ms()
        for _ in range(5):
            service.handle_egress_frame(GOOSE_FRAME, now)
        received = pdp.wait_for(1)
        time.sleep(0.2)
        requests = [e for e in pdp.received if isinstance(e.body, AccessRequest)]
        assert len(requests) == 1  # deduplicated while pending
        assert service.metrics.get("egress.buffered") == 5
        assert catcher.drain() == []

    def test_rerequest_after_timeout(self, dep):
        service, _, _, pdp = dep
        now = now_ms()
        service.handle_egress_frame(GOOSE_FRAME, now)
        service.handle_egress_frame(GOOSE_FRAME, now + service.cfg.request_timeout_ms + 1)
        pdp.wait_for(2)
        requests = [e for e in pdp.received if isinstance(e.body, AccessRequest)]
        assert len(requests) == 2

    def test_buffer_bounded_drop_oldest(self, dep):
        service, _, _, _ = dep
        now = now_ms()
        for _ in range(service.cfg.buffer_limit + 10):
            service.handle_egress_frame(GOOSE_FRAME, now)
        assert service.metrics.get("egress.buffer-overflow") == 10
        (pending,) = service._pending.values()
        assert len(pending.frames) == service.cfg.buffer_limit

    def test_session_init_drains_fifo(self, dep):
        service, catcher, _, _ = dep
        now = now_ms()
        frames = [goose_frame("02:00:00:00:00:01", "01:0c:cd:01:00:01", 5,
                              bytes([i]), pad_to=60) for i in range(6)]
        for f in frames:
            service.handle_egress_frame(f, now)
        service.install_decisions((grant_to_b(),), now)
        forwarded = [decode_envelope(d).body.frame for d in catcher.drain()]
        assert forwarded == frames  # FIFO order preserved
        assert not service._pending

    def test_bypass_skips_authorization_entirely(self, dep):
        catcher, deliver, pdp = UdpCatcher(), UdpCatcher(), EnvelopeSink()
        service = make_dep(catcher, deliver, pdp,
                           bypass_rules=[BypassRule(parse_pattern("eth { ethertype == 0x0806 }"),
                                                    "both")])
        try:
            from flowgate.frames import ethernet_frame

            arp = ethernet_frame("02:00:00:00:00:01", "ff:ff:ff:ff:ff:ff", 0x0806, b"\x00" * 28)
            service.handle_egress_frame(arp, now_ms())
            raw = catcher.recv()
            assert raw == arp  # raw, not an envelope
            time.sleep(0.1)
            assert pdp.received == []  # zero protocol messages
        finally:
            service.stop()
            pdp.close()
            catcher.close()
            deliver.close()


class TestDepIngress:
    @pytest.fixture
    def dep(self):
        catcher, deliver, pdp = UdpCatcher(), UdpCatcher(), EnvelopeSink()
        service = make_dep(catcher, deliver, pdp)
        yield service, catcher, deliver, pdp
        service.stop()
        pdp.close()
        catcher.close()
        deliver.close()

    def sealed_payload(self, frame, seq=None):
        env = ProtocolEnvelope("dep-b", seq if seq is not None else time.monotonic_ns(),
                               now_ms(), PayloadExchangeRequest(frame))
        return encode_envelope(seal(env, NOOP, "dep-a"))

    def test_granted_frame_delivered_bit_exact(self, dep):
        service, _, deliver, _ = dep
        service.ingress_decisions.install(grant_to_a())
        service.handle_datagram(self.sealed_payload(GOOSE_FRAME), now_ms())
        assert deliver.recv() == GOOSE_FRAME
        assert service.metrics.get("ingress.delivered") == 1

    def test_not_in_nexthop_dropped(self, dep):
        service, _, deliver, _ = dep
        service.ingress_decisions.install(grant_to_b())  # nexthop is dep-b, we are dep-a
        service.handle_datagram(self.sealed_payload(GOOSE_FRAME), now_ms())
        assert deliver.drain() == []
        assert service.metrics.get("ingress.denied") == 1

    def test_no_decision_drops_without_requesting(self, dep):
        service, _, deliver, pdp = dep
        service.handle_datagram(self.sealed_payload(GOOSE_FRAME), now_ms())
        assert deliver.drain() == []
        time.sleep(0.1)
        assert pdp.received == []
        assert service.metrics.get("ingress.no-decision") == 1

    def test_tampered_envelope_dropped_before_matching(self, dep):
        catcher, deliver, pdp = UdpCatcher(), UdpCatcher(), EnvelopeSink()
        secret = bytes(range(32))
        registry = {
            "dep-a": DepRegistryEntry("dep-a", ("127.0.0.1", 9), ("127.0.0.1", 9)),
            "dep-b": DepRegistryEntry("dep-b", ("127.0.0.1", 9), catcher.address),
        }
        from flowgate.wire.auth import AuthScheme, HmacSha512Authenticator

        cfg = ServiceConfig(id="dep-a", scheme=AuthScheme.HMAC_SHA512,
                            peer_secrets={"dep-a": secret, "dep-b": secret},
                            pdp=("pdp-1", pdp.address), registry=registry,
                            device_deliver=deliver.address)
        service = DepService(cfg)
        try:
            service.ingress_decisions.install(grant_to_a())
            signer = HmacSha512Authenticator({"dep-a": secret})
            env = seal(ProtocolEnvelope("dep-b", 1, now_ms(),
                                        PayloadExchangeRequest(GOOSE_FRAME)), signer, "dep-a")
            raw = bytearray(encode_envelope(env))
            raw[-1] ^= 0x01  # inside the tag: decodes fine, verification fails
            service.handle_datagram(bytes(raw), now_ms())
            assert deliver.drain() == []
            assert service.metrics.get("ingress.auth-failure") == 1
            assert service.metrics.get("ingress.delivered") == 0
        finally:
            service.stop()
            pdp.close()
            catcher.close()
            deliver.close()

    def test_replayed_payload_dropped(self, dep):
        service, _, deliver, _ = dep
        service.ingress_decisions.install(grant_to_a())
        datagram = self.sealed_payload(GOOSE_FRAME, seq=77)
        service.handle_datagram(datagram, now_ms())
        service.handle_datagram(datagram, now_ms())
        assert len(deliver.drain()) == 1
        assert service.metrics.get("ingress.replay") == 1

    def test_expired_decision_skipped_on_install(self, dep):
        service, _, _, _ = dep
        now = now_ms()
        stale = AccessDecision((parse_pattern(GOOSE_FLOW),), Action.GRANT,
                               frozenset({"dep-a"}), now - 5000, now - 1000)
        service.install_decisions((stale,), now)
        assert len(service.ingress_decisions) == 0


def send_init(service, sender, *decisions):
    """Write a session initialization from `sender` (an EnvelopeFactory) to
    a DEP's control server, on a connection of its own."""
    with socket.create_connection(service.control_address, timeout=5) as conn:
        send_envelope(conn, sender.sealed(SessionInitialization(decisions), service.cfg.id))


def sealed_from_b(sender, frame):
    """`frame` as dep-b's sealed payload exchange request to dep-a."""
    return encode_envelope(sender.sealed(PayloadExchangeRequest(frame), "dep-a"))


class TestSessionVerification:
    """A started DEP verifies each initialization on its worker and installs
    what the verifier agrees with on its loop."""

    def build(self, responder, fail_open=False, timeout_s=0.4):
        catcher, deliver, pdp = UdpCatcher(), UdpCatcher(), EnvelopeSink()
        verifier = EnvelopeSink(responder)
        self.closers = [catcher.close, deliver.close, pdp.close, verifier.close]
        registry = {
            "dep-a": DepRegistryEntry("dep-a", ("127.0.0.1", 9), ("127.0.0.1", 9)),
            "dep-b": DepRegistryEntry("dep-b", ("127.0.0.1", 9), catcher.address),
        }
        cfg = ServiceConfig(id="dep-a", pdp=("pdp-1", pdp.address), registry=registry,
                            device_deliver=deliver.address,
                            verifier_pdp=("pdp-2", verifier.address),
                            verify_fail_open=fail_open, control_timeout_s=timeout_s)
        service = DepService(cfg)
        self.closers.insert(0, service.stop)
        service.start()
        return service, verifier, catcher

    def teardown_method(self):
        for close in getattr(self, "closers", ()):
            close()

    def test_identical_decisions_accepted(self):
        decision = grant_to_a()

        def agree(env):
            if isinstance(env.body, AccessVerificationRequest):
                return AccessVerificationResponse((decision,))
            return None

        service, _, _ = self.build(agree)
        installers = []
        install = service.install_decisions

        def recorded(decisions, now):
            installers.append(threading.current_thread().name)
            install(decisions, now)

        service.install_decisions = recorded
        send_init(service, EnvelopeFactory("pdp-1", NOOP), decision)
        _wait_until(lambda: len(service.ingress_decisions) == 1, 3)
        assert len(service.ingress_decisions) == 1
        assert installers == ["dep-a-control"]  # posted back to the loop
        assert service.metrics.get("session.verification-conflict") == 0

    def test_action_disagreement_installs_default_deny(self):
        granted = grant_to_a()
        denied = deny_decision(granted.flows, granted.valid_from, granted.valid_until)

        def disagree(env):
            if isinstance(env.body, AccessVerificationRequest):
                return AccessVerificationResponse((denied,))
            return None

        service, _, _ = self.build(disagree)
        send_init(service, EnvelopeFactory("pdp-1", NOOP), granted)
        _wait_until(lambda: len(service.ingress_decisions) == 1, 3)
        assert service.metrics.get("session.verification-conflict") == 1
        installed = service.ingress_decisions.snapshot()
        assert len(installed) == 1
        assert installed[0].action is Action.DENY  # fallback, not the grant

    def test_a_conflict_on_one_decision_installs_the_others(self):
        agreed, disputed = grant_to_a(), grant_to_a("eth { goose { appid == 6 } }")

        def verify(env):
            if not isinstance(env.body, AccessVerificationRequest):
                return None
            if env.body.flow == disputed.flows[0]:
                return AccessVerificationResponse((deny_decision(
                    disputed.flows, disputed.valid_from, disputed.valid_until),))
            return AccessVerificationResponse((agreed,))

        service, _, _ = self.build(verify)
        send_init(service, EnvelopeFactory("pdp-1", NOOP), agreed, disputed)
        _wait_until(lambda: service.metrics.get("session.installed") == 1, 3)
        assert service.metrics.get("session.verification-conflict") == 1
        assert service.metrics.get("session.installed") == 1
        actions = {d.flows: d.action for d in service.ingress_decisions.snapshot()}
        assert actions == {agreed.flows: Action.GRANT, disputed.flows: Action.DENY}

    def test_conflict_enforces_the_buffered_frames_against_the_fallback(self):
        granted = grant_to_b()
        denied = deny_decision(granted.flows, granted.valid_from, granted.valid_until)

        def disagree(env):
            if isinstance(env.body, AccessVerificationRequest):
                return AccessVerificationResponse((denied,))
            return None

        service, _, _ = self.build(disagree)
        device = UdpCatcher()
        self.closers.append(device.close)
        device.sock.sendto(GOOSE_FRAME, service.capture_address)  # buffered, one request
        _wait_until(lambda: service.metrics.get("egress.buffered") == 1, 3)
        assert service._pending
        send_init(service, EnvelopeFactory("pdp-1", NOOP), granted)
        _wait_until(lambda: service.metrics.get("egress.denied") == 1, 3)
        assert service.metrics.get("session.verification-conflict") == 1
        assert not service._pending  # not left to linger until the fallback lapses
        assert service.metrics.get("egress.denied") == 1
        assert service.metrics.get("egress.forwarded") == 0

    def test_unreachable_verifier_fails_closed_by_default(self):
        service, verifier, _ = self.build(lambda env: None)
        verifier.close()  # nobody listening
        send_init(service, EnvelopeFactory("pdp-1", NOOP), grant_to_a())
        _wait_until(lambda: len(service.ingress_decisions) == 1, 3)
        assert service.metrics.get("session.verification-conflict") == 1
        installed = service.ingress_decisions.snapshot()
        assert installed and all(d.action is Action.DENY for d in installed)

    def test_a_silent_verifier_does_not_stall_a_granted_flow(self):
        # The verifier accepts and reads, and never replies.
        service, _, catcher = self.build(lambda env: None, timeout_s=0.5)
        service.egress_decisions.install(grant_to_b())
        device = UdpCatcher()
        self.closers.append(device.close)
        send_init(service, EnvelopeFactory("pdp-1", NOOP),
                  grant_to_a("eth { goose { appid == 6 } }"))
        started = time.monotonic()
        for _ in range(5):
            device.sock.sendto(GOOSE_FRAME, service.capture_address)
        forwarded = [catcher.recv() for _ in range(5)]
        elapsed = time.monotonic() - started
        assert len(forwarded) == 5
        assert elapsed < 0.3
        assert service.metrics.get("session.verification-conflict") == 0  # still verifying


class TestDepStop:
    def test_stop_ends_the_loop_and_the_worker_without_counting(self):
        catcher, deliver, pdp = UdpCatcher(), UdpCatcher(), EnvelopeSink()
        service = make_dep(catcher, deliver, pdp)
        before = set(threading.enumerate())

        def added():  # the DEP's threads; the sink serves on threads of its own
            return sorted(t.name for t in threading.enumerate()
                          if t not in before and t.name.startswith("dep-a"))

        try:
            service.start()
            assert added() == ["dep-a-control"]
            deliver.sock.sendto(GOOSE_FRAME, service.capture_address)
            pdp.wait_for(1)  # the first access request starts the worker
            assert added() == ["dep-a-control", "dep-a-worker"]
            counts = service.metrics.dump()
            service.stop()
            assert added() == []
            assert service.metrics.dump() == counts
            sockets = (service._data_sock, service._capture_sock,
                       service._server._wake_r, service._server._wake_w)
            assert all(sock.fileno() == -1 for sock in sockets)
        finally:
            service.stop()
            pdp.close()
            catcher.sock.close()
            deliver.sock.close()


def flood(sock: socket.socket, count: int = 200) -> None:
    """Send `count` 1000 B datagrams to `sock`, whose receive buffer holds a few."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)  # the kernel's minimum
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
        for _ in range(count):
            sender.sendto(b"\x00" * 1000, sock.getsockname())


@pytest.mark.skipif(not os.path.exists("/proc/net/udp"), reason="no /proc/net/udp")
class TestKernelDrops:
    def test_a_flooded_socket_never_read_reports_drops(self):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as quiet:
            sock.bind(("127.0.0.1", 0))
            quiet.bind(("127.0.0.1", 0))
            flood(sock)
            drops = kernel_drops({"flooded": sock, "quiet": quiet})
        assert drops["flooded"] > 0
        assert drops["quiet"] == 0
        assert kernel_drops({"closed": sock}) == {}

    def test_stop_counts_the_capture_sockets_drops(self):
        catcher, deliver, pdp = UdpCatcher(), UdpCatcher(), EnvelopeSink()
        service = make_dep(catcher, deliver, pdp)
        try:
            flood(service._capture_sock)  # never started: nothing reads it
            service.stop()
            counts = service.metrics.dump()
            assert counts["kernel.capture-drops"] > 0
            assert "kernel.data-drops" not in counts  # nothing dropped, nothing counted
        finally:
            service.stop()
            pdp.close()
            catcher.sock.close()
            deliver.sock.close()


class TestDepLoop:
    @pytest.mark.parametrize("handler, endpoint, errors, handled", [
        ("handle_egress_frame", "capture_address", "egress.handler-error", "egress.buffered"),
        ("handle_datagram", "data_address", "ingress.handler-error", "ingress.undecodable"),
    ])
    def test_a_failing_handler_is_counted_and_the_loop_goes_on(self, handler, endpoint,
                                                                errors, handled):
        catcher, deliver, pdp = UdpCatcher(), UdpCatcher(), EnvelopeSink()
        service = make_dep(catcher, deliver, pdp)
        handle, calls = getattr(service, handler), []

        def failing_once(datagram, now):
            calls.append(datagram)
            if len(calls) == 1:
                raise RuntimeError("bad datagram")
            handle(datagram, now)

        setattr(service, handler, failing_once)
        try:
            service.start()
            for _ in range(2):
                deliver.sock.sendto(GOOSE_FRAME, getattr(service, endpoint))
            _wait_until(lambda: service.metrics.get(handled) == 1, 3)
        finally:
            service.stop()
            pdp.close()
            catcher.close()
            deliver.close()
        assert service.metrics.get(errors) == 1
        assert service.metrics.get(handled) == 1


class TestRawCaptureMode:
    def test_raw_capture_flagged_on_and_constructible_or_refused(self):
        """Raw capture needs CAP_NET_RAW; accept either a working socket or
        a clean startup error, never a crash."""
        from flowgate.errors import ServiceStartupError

        pdp = EnvelopeSink()
        cfg = ServiceConfig(id="dep-raw", pdp=("pdp-1", pdp.address),
                            capture_interface="lo")
        try:
            service = DepService(cfg)
        except ServiceStartupError as exc:
            assert "raw capture" in str(exc)
        else:
            assert service.capture_address == "lo"
            service.start()
            started = time.monotonic()
            service.stop()
            assert time.monotonic() - started < 1.0  # the loop is woken, not polled
            assert service._capture_sock.fileno() == -1
        finally:
            pdp.close()


class TestDepOrdering:
    """A DEP handles each control envelope before any datagram that
    arrived after it."""

    @pytest.fixture
    def dep(self):
        catcher, deliver, pdp = UdpCatcher(), UdpCatcher(), EnvelopeSink()
        service = make_dep(catcher, deliver, pdp)
        yield service
        service.stop()
        pdp.close()
        catcher.close()
        deliver.close()

    @staticmethod
    def grant(port):
        now = now_ms()
        return AccessDecision((parse_pattern(f"eth {{ ipv4 {{ udp {{ dstport == {port} }} }} }}"),),
                              Action.GRANT, frozenset({"dep-a"}), now - 1000, now + 60_000,
                              frozenset({f"grant-{port}"}))

    def test_each_init_is_installed_before_the_datagram_after_it(self, dep):
        service = dep
        service.start()
        pdp, peer = EnvelopeFactory("pdp-1", NOOP), EnvelopeFactory("dep-b", NOOP)
        channel = pdp.channel("dep-a", service.control_address)
        data = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        ports = range(41000, 41100)
        try:
            with channel.lock:  # admits the connection
                channel.write([pdp.sealed(SessionInitialization((self.grant(40999),)), "dep-a")], 5)
            _wait_until(lambda: len(service.ingress_decisions) == 1, 3)
            for i, port in enumerate(ports):
                with channel.lock:
                    channel.write([pdp.sealed(SessionInitialization((self.grant(port),)),
                                              "dep-a")], 5)
                data.sendto(sealed_from_b(peer, _udp_between("b", "a", port)),
                            service.data_address)
                if i % 10 == 9:
                    time.sleep(0.002)  # keep within the data socket's buffer
            judged = ("ingress.delivered", "ingress.no-decision", "ingress.denied")
            _wait_until(lambda: sum(service.metrics.get(n) for n in judged) == len(ports), 10)
        finally:
            pdp.close()
            data.close()
        assert service.metrics.get("ingress.no-decision") == 0
        assert service.metrics.get("ingress.delivered") == len(ports)

    def test_an_init_on_a_new_connection_precedes_a_datagram_queued_after_it(self, dep):
        service = dep
        peer = EnvelopeFactory("dep-b", NOOP)
        data = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        # Decoding this many decisions outlasts the interpreter's thread switch
        # interval (5 ms), so a second thread reading datagrams would run meanwhile.
        ports = range(41000, 41200)
        try:
            # Both are queued at the DEP before its loop runs.
            send_init(service, EnvelopeFactory("pdp-1", NOOP), *map(self.grant, ports))
            data.sendto(sealed_from_b(peer, _udp_between("b", "a", ports[-1])),
                        service.data_address)
            service.start()
            _wait_until(lambda: service.metrics.get("ingress.delivered")
                        + service.metrics.get("ingress.no-decision") == 1, 3)
        finally:
            data.close()
        assert service.metrics.get("ingress.no-decision") == 0
        assert service.metrics.get("ingress.delivered") == 1


def _dstport(request) -> int:
    return next(node.fact("dstport") for node in request.anchors() if node.layer == "udp")


def _udp_to(port: int) -> bytes:
    return udp_frame("02:00:00:00:00:01", "02:00:00:00:00:02",
                     "10.0.0.1", "10.0.0.2", 40000, port, b"burst")


def _wait_until(condition, seconds: float, sample=lambda: None) -> None:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and not condition():
        sample()
        time.sleep(0.005)
    sample()


class TestPeerChannel:
    def test_envelopes_on_one_channel_are_opened_in_order(self):
        opened = []
        server = ControlServer("srv", ("127.0.0.1", 0), InboundGate(NOOP, 60_000),
                               lambda env, reply: opened.append(env.sequence),
                               EnvelopeFactory("srv", NOOP), Metrics(), logging.getLogger("test"))
        server.start()
        sender = EnvelopeFactory("client", NOOP)
        channel = sender.channel("srv", server.address)
        threads, per_thread = 4, 50

        def send():
            for _ in range(per_thread):
                with channel.lock:
                    oneshot(channel, sender.sealed(PolicyExchangeRequest(), "srv"), False, 5.0)

        workers = [threading.Thread(target=send) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=20)
            deadline = time.time() + 5
            while time.time() < deadline and len(opened) < threads * per_thread:
                time.sleep(0.01)
        finally:
            sys.setswitchinterval(interval)
            sender.close()
            server.stop()
        assert server._metrics.get("control.rejected") == 0
        assert len(opened) == threads * per_thread
        assert opened == sorted(opened)

    def test_receiver_closing_an_idle_connection_loses_no_envelope(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        listener.settimeout(5)
        received, closed = [], threading.Event()

        def serve():
            # Read one envelope per connection, then close it: the first
            # close happens while the sender has nothing to send.
            for _ in range(2):
                conn, _ = listener.accept()
                with conn:
                    received.append(recv_envelope(conn).sequence)
                closed.set()

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        sender = EnvelopeFactory("client", NOOP)
        channel = sender.channel("srv", listener.getsockname()[:2])
        try:
            for _ in range(2):
                with channel.lock:
                    oneshot(channel, sender.sealed(PolicyExchangeRequest(), "srv"), False, 5.0)
                assert closed.wait(5)
                time.sleep(0.05)  # the close reaches the sender
            server.join(5)
        finally:
            sender.close()
            listener.close()
        assert len(received) == 2
        assert received == sorted(received)

    def test_reply_is_read_on_the_same_connection(self):
        replies = EnvelopeSink(lambda env: AttributeResolution((), ()))
        sender = EnvelopeFactory("client", NOOP)
        channel = sender.channel("stub", replies.address)
        try:
            for _ in range(3):
                with channel.lock:
                    reply = oneshot(channel, sender.sealed(AttributeRequest(("mode",)), "stub"),
                                    True, 5.0)
                assert isinstance(reply.body, AttributeResolution)
        finally:
            sender.close()
            replies.close()
        assert replies.connections == 1

    def test_closed_channel_refuses_to_send(self):
        sink = EnvelopeSink()
        sender = EnvelopeFactory("client", NOOP)
        channel = sender.channel("sink", sink.address)
        sender.close()
        try:
            with pytest.raises(TransportError), channel.lock:
                oneshot(channel, sender.sealed(PolicyExchangeRequest(), "sink"), False, 5.0)
            # A channel made after the factory closed is closed too.
            late = sender.channel("late", sink.address)
            with pytest.raises(TransportError), late.lock:
                oneshot(late, sender.sealed(PolicyExchangeRequest(), "late"), False, 5.0)
        finally:
            sink.close()
        assert sink.received == []

    def test_server_stop_closes_accepted_connections(self):
        opened = []
        server = ControlServer("srv", ("127.0.0.1", 0), InboundGate(NOOP, 60_000),
                               lambda env, reply: opened.append(env.sequence),
                               EnvelopeFactory("srv", NOOP), Metrics(), logging.getLogger("test"))
        server.start()
        sender = EnvelopeFactory("client", NOOP)
        with socket.create_connection(server.address, timeout=5) as conn:
            send_envelope(conn, sender.sealed(PolicyExchangeRequest(), "srv"))
            deadline = time.time() + 3
            while time.time() < deadline and not opened:
                time.sleep(0.01)
            server.stop()
            assert conn.recv(1) == b""
        assert opened
        assert not [t for t in threading.enumerate() if t.name.startswith("srv-")]


def _refusing_address():
    """An address nothing listens on: a connect is refused at once."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()[:2]
    probe.close()
    return address, []


def _silent_address():
    """A listener whose accept queue is full: a connect hangs until it times out."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(0)
    address = listener.getsockname()[:2]
    held = [listener]
    for _ in range(4):
        client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        client.settimeout(0.2)
        held.append(client)
        try:
            client.connect(address)
        except OSError:
            break
    return address, held


class TestDepAccessRequests:
    @pytest.mark.parametrize("unreachable", [_refusing_address, _silent_address])
    def test_unreachable_pdp_leaves_the_capture_path_prompt(self, unreachable):
        address, held = unreachable()
        catcher, deliver = UdpCatcher(), UdpCatcher()
        service = make_dep(catcher, deliver, type("Gone", (), {"address": address}),
                           control_timeout_s=0.5)
        flows = 40
        try:
            started = time.monotonic()
            for port in range(41000, 41000 + flows):
                service.handle_egress_frame(_udp_to(port), now_ms())
            elapsed = time.monotonic() - started
            _wait_until(lambda: service.metrics.get("egress.request-failed") == flows, 5)
        finally:
            service.stop()
            for sock in held + [catcher.sock, deliver.sock]:
                sock.close()
        assert elapsed < 0.3
        assert service.metrics.get("egress.access-request") == flows
        assert service.metrics.get("egress.request-failed") == flows

    @staticmethod
    def queue_and_write(service, ports):
        """Queue a request per port and the stop marker, then run the writer
        on this thread, counting the channel writes it makes."""
        channel = service.factory.channel(*service.cfg.pdp)
        writes, write = [], channel.write

        def counted(envs, *args):
            writes.append(len(envs))
            return write(envs, *args)

        channel.write = counted
        for port in ports:
            service._jobs.put([dissect(_udp_to(port))])
        service._jobs.put(None)
        service._work()
        return writes

    def test_queued_requests_leave_in_one_write_in_sequence_order(self):
        opened = []
        server = ControlServer("pdp-1", ("127.0.0.1", 0), InboundGate(NOOP, 60_000),
                               lambda env, reply: opened.append(env), EnvelopeFactory("pdp-1", NOOP),
                               Metrics(), logging.getLogger("test"))
        server.start()
        catcher, deliver = UdpCatcher(), UdpCatcher()
        service = make_dep(catcher, deliver, type("Pdp", (), {"address": server.address}))
        ports = range(41000, 41010)
        try:
            writes = self.queue_and_write(service, ports)
            _wait_until(lambda: len(opened) == len(ports), 5)
        finally:
            service.stop()
            server.stop()
            catcher.close()
            deliver.close()
        assert writes == [len(ports)]  # the stop marker still lets the batch go
        assert server._metrics.get("control.rejected") == 0
        assert [e.sequence for e in opened] == sorted(e.sequence for e in opened)
        assert [_dstport(e.body.request) for e in opened] == list(ports)
        assert service.metrics.get("egress.request-failed") == 0

    def test_a_burst_waiting_at_the_capture_socket_asks_in_one_write(self):
        opened = []
        server = ControlServer("pdp-1", ("127.0.0.1", 0), InboundGate(NOOP, 60_000),
                               lambda env, reply: opened.append(env), EnvelopeFactory("pdp-1", NOOP),
                               Metrics(), logging.getLogger("test"))
        server.start()
        catcher, deliver = UdpCatcher(), UdpCatcher()
        service = make_dep(catcher, deliver, type("Pdp", (), {"address": server.address}))
        channel = service.factory.channel(*service.cfg.pdp)
        writes, write = [], channel.write

        def counted(envs, *args):
            writes.append(len(envs))
            return write(envs, *args)

        channel.write = counted
        ports, release = range(41000, 41010), threading.Event()
        try:
            service.start()
            service._server.post(release.wait)  # holds the loop while the burst arrives
            for port in ports:
                deliver.sock.sendto(_udp_to(port), service.capture_address)
            release.set()
            _wait_until(lambda: len(opened) == len(ports), 5)
        finally:
            release.set()
            service.stop()
            server.stop()
            catcher.close()
            deliver.close()
        assert writes == [len(ports)]
        assert [_dstport(e.body.request) for e in opened] == list(ports)
        assert service.metrics.get("egress.access-request") == len(ports)
        assert service.metrics.get("egress.buffered") == len(ports)

    def test_a_failed_batch_counts_each_of_its_requests(self):
        address, _ = _refusing_address()
        catcher, deliver = UdpCatcher(), UdpCatcher()
        service = make_dep(catcher, deliver, type("Gone", (), {"address": address}))
        try:
            writes = self.queue_and_write(service, range(41000, 41007))
        finally:
            service.stop()
            catcher.close()
            deliver.close()
        assert writes == [7]
        assert service.metrics.get("egress.request-failed") == 7


def _udp_between(src: str, dst: str, port: int) -> bytes:
    """A frame from dep-`src`'s device to dep-`dst`'s (see `_registry`)."""
    end = {"a": ("02:00:00:00:00:01", "10.0.0.1"), "b": ("02:00:00:00:00:02", "10.0.0.2")}
    return udp_frame(end[src][0], end[dst][0], end[src][1], end[dst][1], 40000, port, b"round")


def _grant_to(port: int, dep_id: str) -> Policy:
    return Policy(f"grant-{port}", Action.GRANT,
                  parse_pattern(f"eth {{ ipv4 {{ udp {{ dstport == {port} }} }} }}"),
                  nexthop_ids=frozenset({dep_id}))


class TestPdpRounds:
    """Access requests handled in one round of the PDP's control loop are
    answered together, with at most two initializations per DEP."""

    @pytest.fixture
    def pdp(self, monkeypatch):
        """A started PDP whose initializations are recorded, in the order
        they are written, as (dep id, decisions)."""
        dep_a, dep_b = EnvelopeSink(), EnvelopeSink()
        cfg = ServiceConfig(id="pdp-1", registry=_registry(dep_a.address, dep_b.address))
        service = PdpService(cfg)
        written = []
        send = pdp_module.oneshot

        def recorded(channel, env, *args, **kwargs):
            written.append((channel.peer, env.body.decisions))
            return send(channel, env, *args, **kwargs)

        monkeypatch.setattr(pdp_module, "oneshot", recorded)
        service.start()
        yield service, written, dep_a, dep_b
        service.stop()
        dep_a.close()
        dep_b.close()

    @staticmethod
    def in_one_write(service, *envelopes):
        """Deliver `envelopes` on one connection in one write, so the PDP
        reads and handles them in one round."""
        with socket.create_connection(service.control_address, timeout=5) as conn:
            send_envelopes(conn, envelopes)

    @staticmethod
    def request(sender, seq, frame):
        return seal(ProtocolEnvelope(sender, seq, now_ms(), AccessRequest(dissect(frame))),
                    NOOP, "pdp-1")

    def test_each_nexthop_is_initialized_before_its_requester(self, pdp):
        service, written, dep_a, dep_b = pdp
        # dep-a's flows go to dep-b and dep-b's to dep-a: each DEP is the
        # other's nexthop.
        a_ports, b_ports = range(41000, 41003), range(42000, 42003)
        service._replace({p.id: p for p in
                          [_grant_to(port, "dep-b") for port in a_ports]
                          + [_grant_to(port, "dep-a") for port in b_ports]})
        self.in_one_write(service, *(
            [self.request("dep-a", i + 1, _udp_between("a", "b", port))
             for i, port in enumerate(a_ports)]
            + [self.request("dep-b", i + 1, _udp_between("b", "a", port))
               for i, port in enumerate(b_ports)]))
        dep_a.wait_for(2)
        dep_b.wait_for(2)
        assert service.metrics.get("access-requests") == 6
        assert service.metrics.get("session-init.sent") == 4
        assert [dep for dep, _ in written].count("dep-a") == 2
        assert [dep for dep, _ in written].count("dep-b") == 2
        requester = {**{f"grant-{p}": "dep-a" for p in a_ports},
                     **{f"grant-{p}": "dep-b" for p in b_ports}}
        for pid, owner in requester.items():
            to = [dep for dep, decisions in written
                  for d in decisions if d.origin_policy_ids == {pid}]
            other = "dep-b" if owner == "dep-a" else "dep-a"
            assert to == [other, owner]  # the nexthop's initialization is written first

    def test_a_policy_change_after_requests_in_one_round_leaves_their_decisions(self, pdp):
        service, written, dep_a, dep_b = pdp
        service._replace({"grant-41000": _grant_to(41000, "dep-b")})
        delete = seal(ProtocolEnvelope("pasp", 1, now_ms(), PolicyExchangeIncremental(
            ((CrudOp.DELETE, "grant-41000", None),), 1)), NOOP, "pdp-1")
        self.in_one_write(service, self.request("dep-a", 1, _udp_between("a", "b", 41000)),
                          delete)
        (init,) = dep_a.wait_for(1)
        (decision,) = init.body.decisions
        assert decision.action is Action.GRANT  # judged under the replica it came under
        assert service.revision == 1
        assert service.policies() == []

    def test_a_request_that_fails_leaves_the_rest_of_the_round_answered(self, pdp):
        service, written, dep_a, dep_b = pdp
        service._replace({p.id: p for p in
                          (_grant_to(port, "dep-b") for port in (41000, 41001, 41002))})
        decide = service._handle_access_request

        def failing(requester, req):
            if _dstport(req.request) == 41001:
                raise RuntimeError("derivation failed")
            return decide(requester, req)

        service._handle_access_request = failing
        self.in_one_write(service, *(self.request("dep-a", i + 1, _udp_between("a", "b", port))
                                     for i, port in enumerate((41000, 41001, 41002))))
        (init,) = dep_a.wait_for(1)
        assert {pid for d in init.body.decisions for pid in d.origin_policy_ids} \
            == {"grant-41000", "grant-41002"}
        assert service.metrics.get("control.handler-error") == 1
        assert len(dep_b.wait_for(1)) == 1


class TestControlPlane:
    def test_burst_of_new_flows_is_decided_in_one_handshake_each(self):
        from flowgate.bench.topology import TopologyConfig, run_topology
        from flowgate.wire.auth import AuthScheme

        ports = range(41000, 41240)
        granted = ports[::2]
        policies = [
            Policy(f"grant-{port}", Action.GRANT,
                   parse_pattern(f"eth {{ ipv4 {{ udp {{ dstport == {port} }} }} }}"),
                   nexthop_ids=frozenset({"dep-b"}))
            for port in granted
        ]
        # A lost or rejected request would only be repeated after the
        # request timeout; make that longer than the test.
        topo = run_topology(TopologyConfig(scheme=AuthScheme.HMAC_SHA512, policies=policies,
                                           request_timeout_ms=60_000))
        dep_a, dep_b = topo.services["dep-a"], topo.services["dep-b"]
        device = topo.active_device_sock
        try:
            # One handshake first, so dep-a's writer and connections exist.
            device.sendto(_udp_to(40999), topo.active_capture)
            _wait_until(lambda: dep_a.metrics.get("egress.denied") == 1, 5)
            before = threading.active_count()
            peak = [before]

            def sample():
                peak[0] = max(peak[0], threading.active_count())

            for _ in range(2):  # the second frame of a flow must not ask again
                for i, port in enumerate(ports):
                    device.sendto(_udp_to(port), topo.active_capture)
                    sample()
                    if i % 10 == 9:
                        time.sleep(0.002)  # keep within dep-a's capture socket buffer
            frames = 2 * len(ports) + 1
            _wait_until(lambda: dep_a.metrics.get("egress.forwarded")
                        + dep_a.metrics.get("egress.denied") == frames, 20, sample)
            # Each nexthop installs its decision before the frames it grants.
            _wait_until(lambda: dep_b.metrics.get("ingress.delivered")
                        + dep_b.metrics.get("ingress.no-decision") == 2 * len(granted), 5)
        finally:
            metrics = topo.shutdown()
        assert peak[0] == before
        assert all(m.get("control.rejected", 0) == 0 for m in metrics.values())
        assert metrics["dep-b"].get("ingress.replay", 0) == 0
        assert metrics["dep-a"]["egress.access-request"] == len(ports) + 1
        assert metrics["pdp-1"]["access-requests"] == len(ports) + 1
        assert metrics["dep-a"].get("egress.request-failed", 0) == 0
        assert metrics["dep-a"]["egress.forwarded"] == 2 * len(granted)
        assert metrics["dep-a"]["egress.denied"] == 2 * (len(ports) - len(granted)) + 1
        assert metrics["dep-b"].get("ingress.no-decision", 0) == 0
        assert metrics["dep-b"]["ingress.delivered"] == 2 * len(granted)

    def test_start_stop_cycles_leave_no_threads_behind(self):
        from flowgate.bench.topology import TopologyConfig, run_topology

        before = set(threading.enumerate())
        for _ in range(3):
            topo = run_topology(TopologyConfig())
            try:
                dep_a = topo.services["dep-a"]
                topo.active_device_sock.sendto(_udp_to(41000), topo.active_capture)
                _wait_until(lambda: dep_a.metrics.get("egress.denied") == 1, 5)
                assert dep_a.metrics.get("egress.denied") == 1
            finally:
                topo.shutdown()
        left = []
        _wait_until(lambda: not left.__setitem__(
            slice(None), [t for t in threading.enumerate() if t not in before]), 1)
        assert left == []


class TestLoopOwnership:
    """A service's state is read and written on its loop thread alone, for
    as long as that loop runs."""

    WATCHED = [(DecisionStore, "install"), (DecisionStore, "_lookup"),
               (PdpService, "_replace"), (PdpService, "_file"), (PdpService, "_decisions_for"),
               (PaspService, "_handle_crud"), (AaspService, "_handle")]

    def test_state_is_touched_only_on_its_loop(self, monkeypatch):
        from flowgate.bench.echo import DEFAULT_ACTIVE, DEFAULT_PASSIVE, PassiveEndpoint, build_echo_frame
        from flowgate.bench.topology import TopologyConfig, run_topology

        calls = []  # (method, object, calling thread, names of the live threads)

        def watched(name, fn):
            def wrapper(self, *args, **kwargs):
                alive = {t.name for t in threading.enumerate()}
                calls.append((name, self, threading.current_thread().name, alive))
                return fn(self, *args, **kwargs)
            return wrapper

        for owner, attr in self.WATCHED:
            monkeypatch.setattr(owner, attr, watched(attr, owner.__dict__[attr]))

        aux = frozenset({predicate("a1", Comparison("mode", CompareOp.EQ, "normal"))})
        gated = Policy("gated", Action.GRANT, parse_pattern(
            'eth { ipv4 { dst == "10.0.0.2" udp { dstport == 40001 } } }'), aux)
        topo = run_topology(TopologyConfig(
            policies=[gated], catalog={"mode": CATALOG["mode"]}, values={"mode": ("normal", 300)}))
        passive = PassiveEndpoint(sock=topo.passive_device_sock, echo=False).start()
        dep_a, pdp = topo.services["dep-a"], topo.services["pdp-1"]
        granted = build_echo_frame(DEFAULT_ACTIVE, DEFAULT_PASSIVE, b"\x00" * 12)

        def send(frame):
            topo.active_device_sock.sendto(frame, topo.active_capture)

        try:
            _wait_until(lambda: passive.received > 0, 5, lambda: send(granted))
            assert passive.received > 0
            send(_udp_to(40009))  # no policy speaks for it
            _wait_until(lambda: dep_a.metrics.get("egress.denied") > 0, 5)
            assert dep_a.metrics.get("egress.denied") > 0

            trip = trip_policy()
            for op, policy in ((CrudOp.CREATE, trip), (CrudOp.DELETE, None)):
                reply = oneshot(topo.pasp_address,
                                admin_envelope(PolicyCrudRequest(op, trip.id, policy)),
                                await_reply=True)
                assert reply.body.status is CrudStatus.OK
            _wait_until(lambda: pdp.revision == 3, 5)
            assert pdp.revision == 3

            topo.services["aasp"].set_value("mode", "maintenance")
            denied = dep_a.metrics.get("egress.denied")
            _wait_until(lambda: dep_a.metrics.get("egress.denied") > denied, 5,
                        lambda: send(granted))
            assert dep_a.metrics.get("egress.denied") > denied
        finally:
            passive.stop()
            topo.shutdown()

        deps = [topo.services["dep-a"], topo.services["dep-b"]]
        store_owner = {id(store): dep.cfg.id for dep in deps
                       for store in (dep.egress_decisions, dep.ingress_decisions)}
        strays = []
        for name, obj, thread, alive in calls:
            owner = store_owner[id(obj)] if isinstance(obj, DecisionStore) else obj.cfg.id
            loop = f"{owner}-control"
            if loop in alive and thread != loop:
                strays.append((owner, name, thread))
        assert strays == []
        assert {name for name, *_ in calls} == {attr for _, attr in self.WATCHED}
