"""Traffic generator: both device stand-ins on one thread and one selector.

The active device injects frames at the first enforcement point's capture
socket and receives the echoes; the passive device echoes every frame it is
delivered.  Both live on one thread, so the harness adds no thread switches of
its own to a round trip, and the loops below are either closed (the next frame
waits for the previous echo) or open (frames leave when they are due, and each
is timed from its due time, so a stall also charges the frames queued behind
it).

Correctness is checked on every echo: the payload must come back bit-exact,
and no frame addressed to a denied port may reach the passive device.

Each loop calls `idle` at moments when nothing it sent is in flight and its
next send is not imminent; the run times its speed reference there.  `idle`
returns how many ns from now it wants to be called again.
"""

from __future__ import annotations

import collections
import heapq
import random
import selectors
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from flowgate.bench.echo import EndpointProfile
from flowgate.frames import udp_frame

from stats import FAILED

HEADER_LEN = 14 + 20 + 8  # Ethernet, IPv4 without options, UDP
_SEQ = struct.Struct(">I")
_MAX_DATAGRAM = 65535

Address = tuple[str, int]


def now_ns() -> int:
    return time.perf_counter_ns()


class Flow:
    """One frame shape: fixed headers and a seeded filler payload.

    Each frame carries its sequence number in the first four payload bytes,
    so every frame of a run differs, and the rest of the payload is filler
    drawn from the run's seed.
    """

    def __init__(self, src: EndpointProfile, dst: EndpointProfile, dstport: int,
                 size: int, rng: random.Random):
        if size < HEADER_LEN + _SEQ.size:
            raise ValueError(f"frame of {size} bytes cannot carry a sequence number")
        self.port = dstport
        self.filler = rng.randbytes(size - HEADER_LEN - _SEQ.size)
        self.header = udp_frame(src.mac, dst.mac, src.ip, dst.ip, src.port, dstport,
                                bytes(size - HEADER_LEN))[:HEADER_LEN]

    def payload(self, seq: int) -> bytes:
        return _SEQ.pack(seq) + self.filler

    def frame(self, seq: int) -> bytes:
        return self.header + _SEQ.pack(seq) + self.filler


def echo_of(frame: bytes) -> bytes:
    """The passive device's reply: MACs, IPs and ports swapped, payload kept.

    Swapping keeps both checksums valid, because each is a sum over fields
    that only trade places.
    """
    return (frame[6:12] + frame[0:6] + frame[12:26] + frame[30:34] + frame[26:30]
            + frame[36:38] + frame[34:36] + frame[38:])


def frame_seq(frame: bytes) -> Optional[int]:
    if len(frame) < HEADER_LEN + _SEQ.size:
        return None
    return _SEQ.unpack_from(frame, HEADER_LEN)[0]


def frame_dstport(frame: bytes) -> int:
    return int.from_bytes(frame[36:38], "big")


class Devices:
    """The active and passive device stand-ins, polled from one thread.

    `inject_to` is where the active device sends (the first enforcement
    point's capture socket, or the passive socket itself for a direct run);
    `echo_to` is where the passive device replies.  Frames to a port in
    `denied_ports` must never be delivered: each one that is counts as a leak
    and is not echoed.
    """

    def __init__(self, active: socket.socket, passive: socket.socket,
                 inject_to: Address, echo_to: Address,
                 denied_ports: frozenset[int] = frozenset()):
        self.active = active
        self.passive = passive
        self.inject_to = inject_to
        self.echo_to = echo_to
        self.denied_ports = denied_ports
        self.flows: dict[int, Flow] = {}
        self.next_seq = 1
        self.sent = 0           # frames injected by the active device
        self.delivered = 0      # frames the passive device received
        self.corrupt = 0        # echoes whose payload differs from what was sent
        self.leaks = 0          # delivered frames of denied flows
        self.on_poll: Optional[Callable[[], None]] = None
        for sock in (active, passive):
            sock.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(active, selectors.EVENT_READ, "active")
        self._sel.register(passive, selectors.EVENT_READ, "passive")

    def close(self) -> None:
        self._sel.close()

    def send(self, flow: Flow) -> int:
        """Inject the next frame of `flow`; returns its sequence number."""
        seq = self.next_seq
        self.next_seq += 1
        self.flows[seq] = flow
        self.active.sendto(flow.frame(seq), self.inject_to)
        self.sent += 1
        return seq

    def poll(self, timeout_s: float) -> list[tuple[int, int]]:
        """Serve both devices for up to `timeout_s`; returns verified echoes
        as (sequence number, arrival time in ns)."""
        echoes: list[tuple[int, int]] = []
        for key, _ in self._sel.select(max(0.0, timeout_s)):
            if key.data == "passive":
                self._serve_passive()
            else:
                self._collect(echoes)
        if self.on_poll is not None:
            self.on_poll()
        return echoes

    def _serve_passive(self) -> None:
        while True:
            try:
                frame = self.passive.recv(_MAX_DATAGRAM)
            except BlockingIOError:
                return
            self.delivered += 1
            if frame_dstport(frame) in self.denied_ports:
                self.leaks += 1
                continue
            self.passive.sendto(echo_of(frame), self.echo_to)

    def _collect(self, echoes: list[tuple[int, int]]) -> None:
        while True:
            try:
                reply = self.active.recv(_MAX_DATAGRAM)
            except BlockingIOError:
                return
            arrived = now_ns()
            seq = frame_seq(reply)
            flow = self.flows.get(seq) if seq is not None else None
            if flow is None or reply[HEADER_LEN:] != flow.payload(seq):
                self.corrupt += 1
                continue
            echoes.append((seq, arrived))


def establish(dev: Devices, flow: Flow, resend_ns: int, give_up_ns: int) -> None:
    """Resend a frame of `flow` every `resend_ns` until one is echoed."""
    started = now_ns()
    sent: set[int] = set()
    while now_ns() - started < give_up_ns:
        sent.add(dev.send(flow))
        until = now_ns() + resend_ns
        while (left := until - now_ns()) > 0:
            if any(seq in sent for seq, _ in dev.poll(left / 1e9)):
                return
    raise RuntimeError(f"flow to port {flow.port} was not echoed within "
                       f"{give_up_ns / 1e9:.1f} s")


@dataclass
class LoopResult:
    """Per-operation latencies in ms (FAILED for an operation that missed its
    deadline) with the (start, end) of each in ns, generator lateness in ms for
    scheduled sends, and the loop's wall time, from its start until its last
    operation completed or failed."""

    latencies: list[float] = field(default_factory=list)
    intervals: list[tuple[int, int]] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    wall_s: float = 0.0

    def add(self, latency_ms: float, start: int, end: int) -> None:
        self.latencies.append(latency_ms)
        self.intervals.append((start, end))


def _nothing() -> int:
    return 1 << 62


IDLE_MARGIN_NS = 2_000_000   # `idle` only when the next send is this far off


def round_trip(dev: Devices, flow: Flow, timeout_ns: int, resend_ns: int) -> float:
    """Send one frame and resend it every `resend_ns` until an echo of any of
    its copies arrives: the round trip in ms from the first send, or FAILED
    after `timeout_ns`.  An echo of an earlier round trip's copy is ignored."""
    sent_at = now_ns()
    sent = {dev.send(flow)}
    deadline = sent_at + timeout_ns
    resend_at = sent_at + resend_ns
    while (left := deadline - now_ns()) > 0:
        if (wait := resend_at - now_ns()) <= 0:
            sent.add(dev.send(flow))
            resend_at += resend_ns
            continue
        for got, arrived in dev.poll(min(left, wait) / 1e9):
            if got in sent:
                return (arrived - sent_at) / 1e6
    return FAILED


def closed_loop(dev: Devices, flow: Flow, end_ns: int, timeout_ns: int, resend_ns: int,
                idle: Callable[[], int] = _nothing) -> LoopResult:
    """One client: send, wait for that frame's echo (resending it every
    `resend_ns`) or the timeout, repeat."""
    result = LoopResult()
    started = now_ns()
    while now_ns() < end_ns:
        idle()
        sent = now_ns()
        result.add(round_trip(dev, flow, timeout_ns, resend_ns), sent, now_ns())
    result.wall_s = (now_ns() - started) / 1e9
    return result


def open_loop(dev: Devices, flow: Flow, start_ns: int, period_ns: int, end_ns: int,
              deadline_ns: int, idle: Callable[[], int] = _nothing) -> LoopResult:
    """Periodic sends due every `period_ns` from `start_ns` until `end_ns`.

    Each frame is timed from its due time; one not echoed within
    `deadline_ns` of it fails.  After the last send the loop waits until
    every frame is echoed or past its deadline.
    """
    result = LoopResult()
    due_of: collections.OrderedDict[int, int] = collections.OrderedDict()
    index = 0
    while True:
        now = now_ns()
        due = start_ns + index * period_ns
        sending = due < end_ns
        if sending and now >= due:
            due_of[dev.send(flow)] = due
            result.lateness.append((now - due) / 1e6)
            index += 1
            continue
        while due_of:
            seq, first_due = next(iter(due_of.items()))
            if now - first_due <= deadline_ns:
                break
            del due_of[seq]
            result.add(FAILED, first_due, now)
        if not sending and not due_of:
            break
        wake = due if sending else next(iter(due_of.values())) + deadline_ns
        if sending and not due_of and due - now >= IDLE_MARGIN_NS:
            wake = min(wake, now + idle())
        for seq, arrived in dev.poll((wake - now_ns()) / 1e9):
            first_due = due_of.pop(seq, None)
            if first_due is None:
                continue  # already failed
            latency = arrived - first_due
            result.add(latency / 1e6 if latency <= deadline_ns else FAILED, first_due, arrived)
    result.wall_s = (now_ns() - start_ns) / 1e9
    return result


@dataclass
class ChurnFlow:
    flow: Flow
    first_due: int
    granted: bool
    done: bool = False
    latency_ms: float = FAILED
    echoed_at: int = 0


def churn_loop(dev: Devices, flows: list[ChurnFlow], resend_ns: int, give_up_ns: int,
               idle: Callable[[], int] = _nothing) -> LoopResult:
    """Each flow sends at its due time and resends every `resend_ns` until a
    frame of it is echoed or `give_up_ns` has passed since its first due time.

    The latency of a flow is from its first due time to its first echo, so it
    covers the whole authorization handshake.
    """
    result = LoopResult()
    start = min(f.first_due for f in flows)
    queue = [(f.first_due, i) for i, f in enumerate(flows)]
    heapq.heapify(queue)
    owner: dict[int, ChurnFlow] = {}
    in_flight = 0   # granted flows sent that are neither echoed nor given up
    while queue:
        due, i = queue[0]
        now = now_ns()
        if now >= due:
            heapq.heappop(queue)
            cf = flows[i]
            if cf.done:
                continue
            if due - cf.first_due >= give_up_ns:
                cf.done = True   # given up: a later echo does not count
                in_flight -= cf.granted
                continue
            if due == cf.first_due:
                in_flight += cf.granted
            owner[dev.send(cf.flow)] = cf
            result.lateness.append((now - due) / 1e6)
            heapq.heappush(queue, (due + resend_ns, i))
            continue
        wake = due
        if not in_flight and due - now >= IDLE_MARGIN_NS:
            wake = min(due, now + idle())
        for seq, arrived in dev.poll((wake - now_ns()) / 1e9):
            cf = owner.get(seq)
            if cf is not None and not cf.done:
                cf.done = True
                in_flight -= cf.granted
                cf.echoed_at = arrived
                if arrived - cf.first_due <= give_up_ns:
                    cf.latency_ms = (arrived - cf.first_due) / 1e6
    # frames still buffered at a gateway may yet reach the passive device
    linger = now_ns() + resend_ns
    while (left := linger - now_ns()) > 0:
        dev.poll(left / 1e9)
    for cf in flows:
        if cf.granted:
            result.add(cf.latency_ms, cf.first_due, cf.echoed_at or cf.first_due + give_up_ns)
    result.wall_s = (now_ns() - start) / 1e9
    return result
