"""Per-frame cost of each stage of a DEP's data path, in one process.

Builds one enforcement point (dep-a) with the noop scheme and loopback UDP
sockets, installs a grant for a 60 B GOOSE frame in both directions, and
calls each stage directly: no peer service, no thread hand-offs and no
tracer, so the numbers carry little of the noise an end-to-end run has.
`handle_datagram` is the whole ingress traversal (decode, open, dissect,
verdict, deliver) of datagrams dep-b sealed; each call needs a fresh
sequence number, so a batch is sealed before each repeat, outside the timing.

The DEP side of an authorization handshake is timed as well: `burst install
1x10` installs one session initialization of 10 grants at a DEP holding one
buffered frame in each of the 10 pending flows they decide, and drains them;
`burst install 10x1` installs the same 10 grants as 10 one-decision
initializations, for comparison.  Each call is one whole burst, and the flows
are made pending again, outside the timing, before each.

    python3 tools/stage_timer.py [--count 20000] [--repeats 7]

Each stage runs `--repeats` times `--count` calls (the burst stages
`--count` / 100, at least one); the printed figure is the median over the
repeats of the mean time per call, in microseconds.  Run it from the root of
a checkout: the program is imported from `src/`.
"""

from __future__ import annotations

import argparse
import os
import socket
import statistics
import sys
import time
from collections import deque
from typing import Callable

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from flowgate.decisions import AccessDecision, DecisionStore  # noqa: E402
from flowgate.frames import dissect, goose_frame, udp_frame  # noqa: E402
from flowgate.pattern_text import parse_pattern  # noqa: E402
from flowgate.policy import Action  # noqa: E402
from flowgate.services.base import EnvelopeFactory, now_ms  # noqa: E402
from flowgate.services.config import DepRegistryEntry, ServiceConfig  # noqa: E402
from flowgate.services.dep import DepService, _Pending  # noqa: E402
from flowgate.wire import messages  # noqa: E402
from flowgate.wire.auth import NoopAuthenticator  # noqa: E402
from flowgate.wire.messages import PayloadExchangeRequest  # noqa: E402

FRAME = goose_frame("02:00:00:00:00:01", "01:0c:cd:01:00:01", 5, b"t", pad_to=60)
FLOW = "eth { goose { appid == 5 } }"
BURST_PORTS = range(41000, 41010)  # one burst of new flows, as in perfbench's flow-churn


def _sink() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.setblocking(False)
    return sock


def _drain(sock: socket.socket) -> None:
    try:
        while True:
            sock.recv(65535)
    except BlockingIOError:
        pass


def build_dep(peer: socket.socket, device: socket.socket) -> DepService:
    """dep-a, whose grants name dep-b (at `peer`) and itself (delivering to
    `device`).  Never started: the stages are called from this thread."""
    unused = ("127.0.0.1", 9)  # discard: no control message is ever sent
    registry = {
        "dep-a": DepRegistryEntry("dep-a", unused, unused),
        "dep-b": DepRegistryEntry("dep-b", unused, peer.getsockname()[:2]),
    }
    cfg = ServiceConfig(id="dep-a", pdp=("pdp-1", unused), registry=registry,
                        device_deliver=device.getsockname()[:2])
    dep = DepService(cfg)
    now = now_ms()
    for store, hop in ((dep.egress_decisions, "dep-b"), (dep.ingress_decisions, "dep-a")):
        store.install(AccessDecision((parse_pattern(FLOW),), Action.GRANT, frozenset({hop}),
                                     now - 1_000, now + 3_600_000, frozenset({"trip"})))
    return dep


def stages(dep: DepService) -> dict:
    """Stage name -> (the call to time, None or what to run before each
    repeat with the number of calls)."""
    now = now_ms()
    request = dissect(FRAME, dep.cfg.dissection)
    body = PayloadExchangeRequest(FRAME)
    sender = EnvelopeFactory("dep-b", NoopAuthenticator(), clock=lambda: now)
    batch = iter(())

    def seal_batch(count: int) -> None:  # every datagram needs a fresh sequence number
        nonlocal batch
        batch = iter([messages.encode_envelope(sender.sealed(body, "dep-a")) for _ in range(count)])

    return {
        "dissect": (lambda: dissect(FRAME, dep.cfg.dissection), None),
        "key()": (request.key, None),
        "verdict hit": (lambda: dep.egress_decisions.verdict(request, now), None),
        "_enforce_egress": (lambda: dep._enforce_egress(FRAME, request, now), None),
        "_enforce_ingress": (lambda: dep._enforce_ingress(FRAME, now), None),
        "seal + encode": (lambda: messages.encode_envelope(dep.factory.sealed(body, "dep-b")), None),
        "handle_egress_frame": (lambda: dep.handle_egress_frame(FRAME, now), None),
        "handle_datagram": (lambda: dep.handle_datagram(next(batch), now), seal_batch),
    }


def bursts(dep: DepService) -> tuple[dict, Callable[[], None]]:
    """Burst stage name -> the sessions one burst installs; and what makes
    the burst's flows pending again at `dep`, with no decision for them."""
    now = now_ms()
    frames = [udp_frame("02:00:00:00:00:01", "02:00:00:00:00:02", "10.0.0.1", "10.0.0.2",
                        40000, port, b"burst") for port in BURST_PORTS]
    requests = [dissect(frame, dep.cfg.dissection) for frame in frames]
    grants = tuple(
        AccessDecision((parse_pattern(f"eth {{ ipv4 {{ udp {{ dstport == {port} }} }} }}"),),
                       Action.GRANT, frozenset({"dep-b"}), now - 1_000, now + 3_600_000,
                       frozenset({f"grant-{port}"}))
        for port in BURST_PORTS
    )

    def pend() -> None:
        dep.egress_decisions = DecisionStore()
        for request, frame in zip(requests, frames):
            dep._pending[request.key()] = _Pending(request, deque([frame]))

    return {"burst install 1x10": [grants],
            "burst install 10x1": [(grant,) for grant in grants]}, pend


def time_burst(dep: DepService, inits, pend, calls: int, repeats: int, sinks) -> float:
    """Median over `repeats` of the mean microseconds to install `inits` at
    `dep`, the burst's flows made pending before each call."""
    per_call = []
    for _ in range(repeats):
        elapsed = 0
        for _ in range(calls):
            pend()
            now = now_ms()
            start = time.perf_counter_ns()
            for init in inits:
                dep.install_decisions(init, now)
            elapsed += time.perf_counter_ns() - start
        per_call.append(elapsed / calls / 1e3)
        for sink in sinks:
            _drain(sink)
    return statistics.median(per_call)


def time_stage(fn, prepare, count: int, repeats: int, sinks) -> float:
    """Median over `repeats` of the mean microseconds per call of `fn`."""
    per_call = []
    for _ in range(repeats):
        if prepare is not None:
            prepare(count)
        start = time.perf_counter_ns()
        for _ in range(count):
            fn()
        per_call.append((time.perf_counter_ns() - start) / count / 1e3)
        for sink in sinks:
            _drain(sink)  # sends into a full socket buffer would be dropped
    return statistics.median(per_call)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=20_000, help="calls per repeat")
    parser.add_argument("--repeats", type=int, default=7, help="repeats per stage")
    args = parser.parse_args(argv)
    if args.count < 1 or args.repeats < 1:
        parser.error("--count and --repeats must be at least 1")
    peer, device = _sink(), _sink()
    dep, burst = build_dep(peer, device), build_dep(peer, device)
    try:
        for name, (fn, prepare) in stages(dep).items():
            if prepare is not None:
                prepare(1)
            fn()  # warm the memo and any lazy set-up before timing
            us = time_stage(fn, prepare, args.count, args.repeats, (peer, device))
            print(f"{name:<22}{us:8.2f} us")
        inits_by_stage, pend = bursts(burst)
        for name, inits in inits_by_stage.items():
            us = time_burst(burst, inits, pend, max(1, args.count // 100), args.repeats,
                            (peer, device))
            print(f"{name:<22}{us:8.2f} us")
        counts = dep.metrics.dump()
        forwarded, delivered = counts.pop("egress.forwarded", 0), counts.pop("ingress.delivered", 0)
        if not forwarded or not delivered or counts:
            print(f"stage_timer: the grants did not hold (forwarded {forwarded}, "
                  f"delivered {delivered}, other counters {counts})", file=sys.stderr)
            return 1
        # Each grant of a burst is installed once and drains its flow's frame.
        counts = burst.metrics.dump()
        drained, installed = counts.pop("egress.forwarded", 0), counts.pop("session.installed", 0)
        if not drained or drained != installed or counts or burst._pending:
            print(f"stage_timer: a burst did not drain (forwarded {drained}, installed "
                  f"{installed}, other counters {counts})", file=sys.stderr)
            return 1
        return 0
    finally:
        dep.stop()
        burst.stop()
        peer.close()
        device.close()


if __name__ == "__main__":
    sys.exit(main())
