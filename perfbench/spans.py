"""Spans around calls into each layer's public functions.

The tracer replaces a function at the binding its caller uses (a module
attribute or a class attribute) with a wrapper that records one span per
call: name, start, end, parent, key and service.  A thread-local stack gives
each span its parent.  Only a root span (a call made with no traced caller on
its thread) carries a key: the sequence number in a data frame's payload, or
the destination port of the flow a control message is about; every other span
inherits its root's key.  The service is the thread's name up to its role
suffix ("dep-a-capture" -> "dep-a").

Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the durations of its children.
"""

from __future__ import annotations

import csv
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from gen import frame_seq

SERVICES = ("dep-a", "dep-b", "pdp-1", "aasp", "pasp", "operator")


def service_of(thread_name: str) -> str:
    for service in SERVICES:
        if thread_name == service or thread_name.startswith(service + "-"):
            return service
    return "harness" if thread_name == "MainThread" else "other"


@dataclass(frozen=True)
class Target:
    """One traced binding: `owner.attr`, recorded under `name`.

    `key` maps the call's arguments to the root key, when the call can be a
    root or can name the frame its root is handling; `size` maps them to a
    count worth keeping with the span, such as the decisions in a session.
    """

    owner: Any
    attr: str
    name: str
    key: Optional[Callable[..., Optional[int]]] = None
    size: Optional[Callable[..., int]] = None


@dataclass(slots=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: int
    end: int
    service: str
    key: Optional[int]
    error: Optional[str]
    size: Optional[int]


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for target in self.targets:
            original = target.owner.__dict__[target.attr]
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(original, target))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # a stack entry is [span id, key]; the root's key is shared
            root = stack[0] if stack else None
            key = target.key(*args, **kwargs) if target.key is not None else None
            if root is None:
                entry = [next(ids), key]
            else:
                if root[1] is None and key is not None:
                    root[1] = key
                entry = [next(ids), None]
            parent = stack[-1][0] if stack else None
            stack.append(entry)
            size = target.size(*args, **kwargs) if target.size is not None else None
            error = None
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append(Span(entry[0], parent, target.name, start, end,
                                  service_of(threading.current_thread().name),
                                  entry[1], error, size))

        return traced

    def write(self, path: str) -> None:
        """One CSV row per span, with each key resolved through its root."""
        keys = self.root_keys()
        with open(path, "w", encoding="utf-8", newline="") as fp:
            out = csv.writer(fp)
            out.writerow(("id", "parent", "name", "start_ns", "end_ns", "service", "key",
                          "error", "size"))
            for s in self.spans:
                out.writerow((s.id, s.parent, s.name, s.start, s.end, s.service,
                              keys.get(s.id), s.error, s.size))

    def root_keys(self) -> dict[int, Optional[int]]:
        parent = {s.id: s.parent for s in self.spans}
        own = {s.id: s.key for s in self.spans}
        out: dict[int, Optional[int]] = {}
        for s in self.spans:
            node = s.id
            while parent.get(node) is not None:
                node = parent[node]
            out[s.id] = own.get(node)
        return out


class SpanStats:
    """Aggregates over the spans of one traced phase."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                self.children[s.parent].append(s)

    def select(self, name: str, services: Optional[tuple[str, ...]] = None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (services is None or s.service in services)]

    def self_ns(self, span: Span) -> int:
        return (span.end - span.start) - sum(c.end - c.start for c in self.children[span.id])

    def mean_us(self, name: str, services=None, self_time: bool = False) -> float:
        spans = self.select(name, services)
        if not spans:
            return 0.0
        total = sum(self.self_ns(s) if self_time else s.end - s.start for s in spans)
        return total / len(spans) / 1e3

    def count(self, name: str, services=None) -> int:
        return len(self.select(name, services))

    def errors(self, name: str, error: str) -> int:
        return sum(1 for s in self.spans if s.name == name and s.error == error)

    def child_count(self, span: Span, name: str) -> int:
        return sum(1 for c in self.children[span.id] if c.name == name)


# -- key extractors: each sees the traced call's arguments -------------------


def key_from_frame(*args, **_kw) -> Optional[int]:
    """Sequence number of the frame argument of `dissect(frame)` or
    `handle_egress_frame(self, frame, now)`."""
    for arg in args[:2]:
        if isinstance(arg, (bytes, bytearray)):
            return frame_seq(arg)
    return None


def _dstport(request) -> Optional[int]:
    node = request.root
    while node is not None:
        if node.layer in ("udp", "tcp"):
            return node.fact("dstport")
        node = node.child
    return None


def key_from_access_request(_self, _requester, req) -> Optional[int]:
    return _dstport(req.request)


def key_from_envelope(_addr, env, *_a, **_kw) -> Optional[int]:
    request = getattr(env.body, "request", None)
    return _dstport(request) if request is not None else None


def key_from_decisions(_self, decisions, _now) -> Optional[int]:
    """Port in the origin policy id of a session's decisions ("grant-41007")."""
    for decision in decisions:
        for pid in decision.origin_policy_ids:
            tail = pid.rsplit("-", 1)[-1]
            if tail.isdigit():
                return int(tail)
    return None


def flowgate_targets() -> list[Target]:
    """Every traced binding, named `<layer>.<function>`."""
    import flowgate.decisions as decisions
    import flowgate.patterns as patterns
    import flowgate.services.base as base
    import flowgate.services.dep as dep
    import flowgate.services.pasp as pasp
    import flowgate.services.pdp as pdp
    import flowgate.wire.auth as auth
    import flowgate.wire.messages as messages
    import flowgate.wire.transport as transport

    return [
        Target(dep.DepService, "handle_egress_frame", "dep.handle_egress_frame", key_from_frame),
        Target(dep.DepService, "handle_datagram", "dep.handle_datagram"),
        Target(dep.DepService, "install_decisions", "dep.install_decisions", key_from_decisions,
               size=lambda _self, decisions, _now: len(decisions)),
        Target(dep, "dissect", "frames.dissect", key_from_frame),
        Target(decisions, "match_nested", "patterns.match_nested"),
        Target(pdp, "match_nested", "patterns.match_nested"),
        Target(patterns.FlowPattern, "normalized", "patterns.normalized"),
        Target(decisions.DecisionStore, "matching", "decisions.matching"),
        Target(decisions.DecisionStore, "install", "decisions.install"),
        Target(dep, "select_decision", "decisions.select_decision"),
        Target(dep, "enforce", "decisions.enforce"),
        Target(pdp, "dynamic_authorization", "decisions.dynamic_authorization"),
        Target(messages, "encode_envelope", "wire.encode_envelope"),
        Target(messages, "decode_envelope", "wire.decode_envelope"),
        Target(transport, "encode_envelope", "wire.encode_envelope"),
        Target(transport, "decode_envelope", "wire.decode_envelope"),
        Target(base, "seal", "wire.seal"),
        Target(auth.InboundGate, "open", "wire.open"),
        Target(dep, "oneshot", "wire.oneshot", key_from_envelope),
        Target(pdp, "oneshot", "wire.oneshot", key_from_envelope),
        Target(pasp, "oneshot", "wire.oneshot", key_from_envelope),
        Target(pdp.PdpService, "_handle_access_request", "pdp.handle_access_request",
               key_from_access_request),
        Target(pdp.RemoteAttributeSource, "resolve", "aasp.resolve"),
    ]
