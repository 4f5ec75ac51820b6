"""Per-frame cost of each stage of a DEP's data path, in one process.

Builds one enforcement point (dep-a) with the noop scheme and loopback UDP
sockets, installs a grant for a 60 B GOOSE frame in both directions, and
calls each stage directly: no peer service, no thread hand-offs and no
tracer, so the numbers carry little of the noise an end-to-end run has.
`handle_datagram` is the whole ingress traversal (decode, open, dissect,
verdict, deliver) of datagrams dep-b sealed; each call needs a fresh
sequence number, so a batch is sealed before each repeat, outside the timing.

    python3 tools/stage_timer.py [--count 20000] [--repeats 7]

Each stage runs `--repeats` times `--count` calls; the printed figure is the
median over the repeats of the mean time per call, in microseconds.  Run it
from the root of a checkout: the program is imported from `src/`.
"""

from __future__ import annotations

import argparse
import os
import socket
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from flowgate.decisions import AccessDecision  # noqa: E402
from flowgate.frames import dissect, goose_frame  # noqa: E402
from flowgate.pattern_text import parse_pattern  # noqa: E402
from flowgate.policy import Action  # noqa: E402
from flowgate.services.base import EnvelopeFactory, now_ms  # noqa: E402
from flowgate.services.config import DepRegistryEntry, ServiceConfig  # noqa: E402
from flowgate.services.dep import DepService  # noqa: E402
from flowgate.wire import messages  # noqa: E402
from flowgate.wire.auth import NoopAuthenticator  # noqa: E402
from flowgate.wire.messages import PayloadExchangeRequest  # noqa: E402

FRAME = goose_frame("02:00:00:00:00:01", "01:0c:cd:01:00:01", 5, b"t", pad_to=60)
FLOW = "eth { goose { appid == 5 } }"


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
    dep = build_dep(peer, device)
    try:
        for name, (fn, prepare) in stages(dep).items():
            if prepare is not None:
                prepare(1)
            fn()  # warm the memo and any lazy set-up before timing
            us = time_stage(fn, prepare, args.count, args.repeats, (peer, device))
            print(f"{name:<22}{us:8.2f} us")
        counts = dep.metrics.dump()
        forwarded, delivered = counts.pop("egress.forwarded", 0), counts.pop("ingress.delivered", 0)
        if not forwarded or not delivered or counts:
            print(f"stage_timer: the grants did not hold (forwarded {forwarded}, "
                  f"delivered {delivered}, other counters {counts})", file=sys.stderr)
            return 1
        return 0
    finally:
        dep.stop()
        peer.close()
        device.close()


if __name__ == "__main__":
    sys.exit(main())
