"""The workloads, their policy sets, set-up and timed phases.

Every workload runs the local five-service topology of
`flowgate.bench.topology` on loopback, with the device stand-ins of `gen`
on the benchmark's main thread.  Why each workload exists, and which layers
it loads, is in README.md next to this file.  Every time a phase reports is
scaled to the reference speed of `speed`.
"""

from __future__ import annotations

import math
import random
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from flowgate.bench.echo import DEFAULT_ACTIVE, DEFAULT_PASSIVE
from flowgate.bench.topology import Topology, TopologyConfig, run_topology
from flowgate.errors import TransportError
from flowgate.policy import AttributeKey, Policy
from flowgate.policy_text import parse_policy
from flowgate.wire.auth import AuthScheme, HmacSha512Authenticator, InboundGate, OpenFailure, seal
from flowgate.wire.messages import (
    CrudOp,
    CrudStatus,
    PolicyCrudRequest,
    PolicyCrudResponse,
    ProtocolEnvelope,
)
from flowgate.wire.transport import oneshot

import gen
from gen import ChurnFlow, Devices, Flow, LoopResult, now_ns
from speed import Speed

MS = 1_000_000
LONG_VALIDITY_MS = 600_000  # longer than any run

RESEND_MS = 100           # a client waiting for an echo resends this often
ESTABLISH_GIVE_UP_MS = 5_000
WARMUP_ECHOES = 50

CHURN_GRANTED = 256       # per-destination-port grants, valid 2 s
CHURN_RESIDENT = 64       # flows established before timing, then idle
CHURN_BURST = 10
CHURN_BURST_EVERY_MS = 2_000
CHURN_DENIED_SHARE = 0.25
CHURN_GRANT_VALIDITY_MS = 2_000
CHURN_GIVE_UP_MS = 6_000   # past the ~3.3 s tail of a handshake retried after a replay rejection
CRUD_EVERY_MS = 500
CRUD_PHASE_MS = 250       # CRUD due times sit halfway between burst instants
GRANTED_PORT0, RESIDENT_PORT0, DENIED_PORT0 = 41_000, 42_000, 43_000

REAUTH_RATE_HZ = 200
REAUTH_FRESHNESS_MS = 2_000


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: AuthScheme
    frame_size: int
    loop: str               # "closed", "open" or "churn"
    deadline_ms: float      # an operation not complete by then has failed
    limit_ms: float         # latency limit behind within_limit_pct
    setups: int             # set-ups per run; setup_s is their median


WORKLOADS = {
    w.name: w
    for w in (
        # a set-up of ~0.1 s varies more than one of 64 handshakes (~2 s), and
        # each also costs ~0.7 s of shutdown: more of the short ones
        Workload("echo-noop", AuthScheme.NOOP, 60, "closed", 1_000, 6, 7),
        Workload("echo-ed25519", AuthScheme.ED25519, 1514, "closed", 1_000, 6, 7),
        Workload("reauth-hmac", AuthScheme.HMAC_SHA512, 60, "open", 2_000, 200, 7),
        Workload("reauth-closed", AuthScheme.HMAC_SHA512, 60, "closed", 2_000, 200, 7),
        Workload("flow-churn", AuthScheme.HMAC_SHA512, 60, "churn", CHURN_GIVE_UP_MS, 1_000, 3),
    )
}


# -- policies -----------------------------------------------------------------


def _grant(pid: str, dst_ip: str, port: int, validity_ms: int, nexthop: Optional[str] = None,
           aux: str = "") -> Policy:
    text = (f"id {pid}\naction GRANT\nstatic-max-validity {validity_ms}\n"
            + (f"nexthop {nexthop}\n" if nexthop else "")
            + f'flow: eth {{ ipv4 {{ dst == "{dst_ip}" udp {{ dstport == {port} }} }} }}\n'
            + aux)
    return parse_policy(text)


def _echo_grants(aux: str = "") -> list[Policy]:
    """The two echo grants: active -> passive and the echo back."""
    return [
        _grant("echo-fwd", DEFAULT_PASSIVE.ip, DEFAULT_PASSIVE.port, LONG_VALIDITY_MS, aux=aux),
        _grant("echo-rev", DEFAULT_ACTIVE.ip, DEFAULT_ACTIVE.port, LONG_VALIDITY_MS, aux=aux),
    ]


def granted_ports() -> list[int]:
    return [GRANTED_PORT0 + i for i in range(CHURN_GRANTED)]


def resident_ports() -> list[int]:
    return [RESIDENT_PORT0 + i for i in range(CHURN_RESIDENT)]


def churn_policies() -> list[Policy]:
    """321 policies: the churn grants, the resident grants and the echo back."""
    passive = DEFAULT_PASSIVE.ip
    return (
        [_grant(f"grant-{p}", passive, p, CHURN_GRANT_VALIDITY_MS, "dep-b") for p in granted_ports()]
        + [_grant(f"resident-{p}", passive, p, LONG_VALIDITY_MS, "dep-b") for p in resident_ports()]
        + [_grant("echo-rev", DEFAULT_ACTIVE.ip, DEFAULT_ACTIVE.port, LONG_VALIDITY_MS)]
    )


def topology_config(w: Workload) -> TopologyConfig:
    if w.name in ("reauth-hmac", "reauth-closed"):
        return TopologyConfig(
            scheme=w.scheme,
            policies=_echo_grants('aux: a1\na1: mode == "normal"\n'),
            catalog={"mode": AttributeKey("mode", "string", time_variable=True)},
            values={"mode": ("normal", REAUTH_FRESHNESS_MS)},
        )
    if w.name == "flow-churn":
        return TopologyConfig(scheme=w.scheme, policies=churn_policies())
    return TopologyConfig(scheme=w.scheme, policies=_echo_grants())


# -- set-up ---------------------------------------------------------------------


@dataclass
class Stack:
    """A running topology with its device stand-ins and per-run inputs."""

    workload: Workload
    topo: Topology
    dev: Devices
    echo_flow: Optional[Flow]   # the one flow of the echo and reauth workloads
    rng: random.Random
    speed: Speed
    setup_s: float = 0.0        # scaled to the reference speed
    churn_cursor: int = 0
    denied_cursor: int = 0
    granted_order: list[int] = field(default_factory=list)

    def close(self) -> None:
        self.dev.close()
        self.topo.shutdown()


def set_up(w: Workload, seed: int, speed: Speed) -> Stack:
    """Start the topology and warm it: every decision the timed phase relies
    on is installed, and for flow-churn the resident flows are established.
    The set-up time, from topology start to the first timed frame, leaves out
    the reference blocks timed in between (at idle moments only)."""
    rng = random.Random(seed)
    speed.sample()
    started, spent = now_ns(), speed.spent_ns
    topo = run_topology(topology_config(w))
    try:
        denied = frozenset(range(DENIED_PORT0, DENIED_PORT0 + 10_000))
        dev = Devices(topo.active_device_sock, topo.passive_device_sock,
                      topo.active_capture, topo.passive_capture, denied)
        if w.loop == "churn":
            stack = Stack(w, topo, dev, None, rng, speed)
            stack.granted_order = rng.sample(granted_ports(), CHURN_GRANTED)
            for port in resident_ports():
                speed.tick()
                flow = Flow(DEFAULT_ACTIVE, DEFAULT_PASSIVE, port, w.frame_size, rng)
                gen.establish(dev, flow, RESEND_MS * MS, ESTABLISH_GIVE_UP_MS * MS)
        else:
            flow = Flow(DEFAULT_ACTIVE, DEFAULT_PASSIVE, DEFAULT_PASSIVE.port, w.frame_size,
                        rng)
            gen.establish(dev, flow, RESEND_MS * MS, ESTABLISH_GIVE_UP_MS * MS)
            for _ in range(WARMUP_ECHOES):
                speed.tick()
                if gen.round_trip(dev, flow, int(w.deadline_ms * MS),
                                  RESEND_MS * MS) == gen.FAILED:
                    raise RuntimeError("warm-up echo timed out")
            stack = Stack(w, topo, dev, flow, rng, speed)
        ended = now_ns()
        speed.sample()
        stack.setup_s = ((ended - started - (speed.spent_ns - spent)) / 1e9
                         * speed.factor_over(started, now_ns()))
        return stack
    except BaseException:
        topo.shutdown()
        raise


# -- timed phase -------------------------------------------------------------------


@dataclass
class Phase:
    """What one timed phase measured.  `latencies` (ms) and `cpu_s` are
    scaled to the reference speed, and `cpu_s` leaves out the reference
    blocks.  So does `wall_s` for a closed loop, whose length is set by the
    program's speed; an open loop's is set by its schedule and is kept as
    measured.  `loop` holds the raw figures."""

    loop: LoopResult
    latencies: list[float]
    wall_s: float
    attempted: int          # operations whose latency is in loop.latencies
    ops: int                # echoed frames, or new flows in flow-churn
    cpu_s: float
    vcsw: int
    one_way_frames: int
    new_flows: int = 0
    crud_ms: list[float] = field(default_factory=list)
    crud_failed: int = 0
    crud_bad_status: int = 0
    extra_attempts: int = 0  # attempts not in loop.latencies (ungranted flows, CRUD)


def timed_phase(stack: Stack, seconds: float) -> Phase:
    dev = stack.dev
    w = stack.workload
    speed = stack.speed
    sent0, delivered0 = dev.sent, dev.delivered
    speed.sample()
    spent0, spent_cpu0 = speed.spent_ns, speed.spent_cpu_s
    cpu0 = time.process_time()
    vcsw0 = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw
    start = now_ns() + 20 * MS
    end = start + int(seconds * 1e9)
    operator = None
    new_flows = 0
    flows: list[ChurnFlow] = []
    if w.loop == "closed":
        result = gen.closed_loop(dev, stack.echo_flow, end, int(w.deadline_ms * MS),
                                 RESEND_MS * MS, speed.tick)
    elif w.loop == "open":
        result = gen.open_loop(dev, stack.echo_flow, start, 1_000_000_000 // REAUTH_RATE_HZ,
                               end, int(w.deadline_ms * MS), speed.tick)
    else:
        flows = churn_flows(stack, start, end)
        new_flows = len(flows)
        operator = Operator(stack, start, end)
        operator.start()
        try:
            result = gen.churn_loop(dev, flows, RESEND_MS * MS, CHURN_GIVE_UP_MS * MS,
                                    speed.tick)
        finally:
            operator.join(timeout=30)
        if operator.is_alive():
            raise RuntimeError("operator thread did not finish")
    cpu = time.process_time() - cpu0 - (speed.spent_cpu_s - spent_cpu0)
    vcsw = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw - vcsw0
    in_blocks_s = (speed.spent_ns - spent0) / 1e9
    finished = now_ns()
    speed.sample()
    scale = speed.factor_over(start, finished)
    completed = sum(1 for v in result.latencies if v != gen.FAILED)
    phase = Phase(
        loop=result,
        latencies=[v * speed.factor_over(t0, t1)
                   for v, (t0, t1) in zip(result.latencies, result.intervals)],
        wall_s=(result.wall_s - in_blocks_s) * scale if w.loop == "closed" else result.wall_s,
        attempted=len(result.latencies),
        ops=new_flows if w.loop == "churn" else completed,
        cpu_s=cpu * scale,
        vcsw=vcsw,
        one_way_frames=(dev.sent - sent0) + (dev.delivered - delivered0),
        new_flows=new_flows,
    )
    if operator is not None:
        phase.crud_ms = operator.rtts_ms
        phase.crud_failed = operator.failed
        phase.crud_bad_status = operator.bad_status
        phase.extra_attempts = sum(1 for f in flows if not f.granted) + operator.attempted
    return phase


def churn_flows(stack: Stack, start: int, end: int) -> list[ChurnFlow]:
    """Bursts of new flows every 2 s from `start`.  A quarter of them go to
    ports that no policy grants: every burst holds two or three such flows,
    so that each prefix of the run keeps the quarter, at seeded positions in
    the burst.  Granted ports follow one seeded order, so no port repeats
    within a run."""
    w = stack.workload
    bursts = max(1, (end - start) // (CHURN_BURST_EVERY_MS * MS))
    denied_at: set[int] = set()
    for b in range(bursts):
        quota = (math.floor((b + 1) * CHURN_BURST * CHURN_DENIED_SHARE + 0.5)
                 - math.floor(b * CHURN_BURST * CHURN_DENIED_SHARE + 0.5))
        denied_at.update(b * CHURN_BURST + k
                         for k in stack.rng.sample(range(CHURN_BURST), quota))
    flows = []
    for i in range(bursts * CHURN_BURST):
        due = start + (i // CHURN_BURST) * CHURN_BURST_EVERY_MS * MS
        if i in denied_at:
            port = DENIED_PORT0 + stack.denied_cursor
            stack.denied_cursor += 1
            granted = False
        else:
            port = stack.granted_order[stack.churn_cursor % CHURN_GRANTED]
            stack.churn_cursor += 1
            granted = True
        flow = Flow(DEFAULT_ACTIVE, DEFAULT_PASSIVE, port, w.frame_size, stack.rng)
        flows.append(ChurnFlow(flow, due, granted))
    return flows


class Operator(threading.Thread):
    """Sends one CRUD UPDATE to the PASP every 500 ms, due at a fixed phase to
    the churn bursts on the generator's clock, and times each round trip."""

    def __init__(self, stack: Stack, start: int, end: int):
        super().__init__(name="operator", daemon=True)
        pasp = stack.topo.services["pasp"]
        self._addr = stack.topo.pasp_address
        self._auth = HmacSha512Authenticator({"pasp": pasp.cfg.peer_secrets["operator"]})
        self._gate = InboundGate(self._auth)
        self._policies = {p.id: p for p in pasp.policies()}
        self._targets = [f"grant-{p}" for p in stack.rng.sample(granted_ports(), CHURN_GRANTED)]
        self._dues = list(range(start + CRUD_PHASE_MS * MS, end, CRUD_EVERY_MS * MS))
        # a later operator on the same topology must start above this one
        self._seq = int(time.time() * 1e6)
        self.rtts_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.bad_status = 0

    def run(self) -> None:
        for i, due in enumerate(self._dues):
            wait = due - now_ns()
            if wait > 0:
                time.sleep(wait / 1e9)
            pid = self._targets[i % len(self._targets)]
            self._seq += 1
            env = ProtocolEnvelope("operator", self._seq, int(time.time() * 1000),
                                   PolicyCrudRequest(CrudOp.UPDATE, pid, self._policies[pid]))
            self.attempted += 1
            sent = now_ns()
            try:
                reply = oneshot(self._addr, seal(env, self._auth, "pasp"), await_reply=True)
                self._gate.open(reply, int(time.time() * 1000))
            except (TransportError, OpenFailure):
                self.failed += 1
                continue
            if not (isinstance(reply.body, PolicyCrudResponse)
                    and reply.body.status is CrudStatus.OK):
                self.bad_status += 1
                continue
            self.rtts_ms.append((now_ns() - sent) / 1e6)
