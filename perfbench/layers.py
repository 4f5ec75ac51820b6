"""Per-layer metrics of a traced phase, from spans, counters and samples.

Layers are named after the modules: frames, patterns, decisions, wire
(codec, messages, auth, transport), dep, pdp, aasp, pasp, plus the process
and the harness.  Names and units are in `BENCHMARK.json`.  A time is a mean
per call in µs; "self" means the span's duration minus its children.  A ratio
with nothing to divide by, or a mean over no calls (the workload never reaches
that code), reads 0.
"""

from __future__ import annotations

import threading

from stats import FAILED, percentile
from spans import SpanStats

DEPS = ("dep-a", "dep-b")
PDP = ("pdp-1",)
PROGRAM = ("dep-a", "dep-b", "pdp-1", "aasp", "pasp")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Sampler:
    """Called on every generator poll; samples the thread count and the size
    of dep-a's egress store at most every `every_ns`."""

    def __init__(self, store, clock, every_ns: int = 10_000_000):
        self._store = store
        self._clock = clock
        self._every = every_ns
        self._next = 0
        self.threads_max = threading.active_count()
        self.store_max = len(store)

    def __call__(self) -> None:
        now = self._clock()
        if now < self._next:
            return
        self._next = now + self._every
        self.threads_max = max(self.threads_max, threading.active_count())
        self.store_max = max(self.store_max, len(self._store))


def counter_delta(before: dict, after: dict, services: tuple[str, ...], name: str) -> int:
    return sum(after[s].get(name, 0) - before[s].get(name, 0) for s in services)


def per_layer(spans: SpanStats, before: dict, after: dict, sampler: Sampler, traced,
              untraced, direct_rtt_p50_ms: float) -> dict[str, float]:
    """`traced` and `untraced` are the two timed phases of the traced run;
    `before`/`after` map each service to its counters around the traced one."""
    frames = traced.one_way_frames
    matching = spans.select("decisions.matching", DEPS)
    hits = [m for m in matching if spans.child_count(m, "patterns.match_nested") == 0]
    misses = [m for m in matching if spans.child_count(m, "patterns.match_nested") > 0]
    access_requests = counter_delta(before, after, DEPS, "egress.access-request")
    installs = spans.select("dep.install_decisions", DEPS)
    received = sum(s.size or 0 for s in installs)
    cache_hits = counter_delta(before, after, PDP, "decisions.cache-hit")
    derived = counter_delta(before, after, PDP, "decisions.derived")
    crud_ok = len(traced.crud_ms)
    cpu_traced = _ratio(traced.cpu_s * 1e3, traced.ops)
    cpu_untraced = _ratio(untraced.cpu_s * 1e3, untraced.ops)
    lateness = untraced.loop.lateness
    crud = untraced.crud_ms

    def span_mean(span_list) -> float:
        return _ratio(sum(s.end - s.start for s in span_list) / 1e3, len(span_list))

    return {
        "frames.dissect_us": spans.mean_us("frames.dissect", DEPS, self_time=True),
        "frames.dissect_per_frame": _ratio(spans.count("frames.dissect", DEPS), frames),
        "patterns.match_nested_us": spans.mean_us("patterns.match_nested", DEPS),
        "patterns.match_nested_per_frame":
            _ratio(spans.count("patterns.match_nested", DEPS), frames),
        "patterns.normalized_per_frame": _ratio(spans.count("patterns.normalized", DEPS), frames),
        "pdp.match_nested_per_request": _ratio(spans.count("patterns.match_nested", PDP),
                                               spans.count("pdp.handle_access_request", PDP)),
        "decisions.matching_hit_us": span_mean(hits),
        "decisions.matching_miss_us": span_mean(misses),
        "decisions.miss_scan_len": _ratio(
            sum(spans.child_count(m, "patterns.match_nested") for m in misses), len(misses)),
        "decisions.memo_hit_pct": 100 * _ratio(len(hits), len(matching)),
        "decisions.select_us": spans.mean_us("decisions.select_decision", DEPS, self_time=True),
        "decisions.enforce_us": spans.mean_us("decisions.enforce", DEPS, self_time=True),
        "decisions.install_us": spans.mean_us("decisions.install", DEPS),
        "decisions.store_size_max": sampler.store_max,
        "decisions.derive_us": spans.mean_us("decisions.dynamic_authorization", PDP),
        "wire.encode_us": spans.mean_us("wire.encode_envelope", PROGRAM, self_time=True),
        "wire.decode_us": spans.mean_us("wire.decode_envelope", PROGRAM, self_time=True),
        "wire.seal_us": spans.mean_us("wire.seal", PROGRAM),
        "wire.open_us": spans.mean_us("wire.open", PROGRAM),
        "wire.replay_rejections": spans.errors("wire.open", "ReplayFailure"),
        "wire.oneshot_per_flow": _ratio(spans.count("wire.oneshot", PROGRAM), traced.new_flows),
        "wire.oneshot_us": spans.mean_us("wire.oneshot", PROGRAM),
        "dep.egress_self_us": spans.mean_us("dep.handle_egress_frame", DEPS, self_time=True),
        "dep.ingress_self_us": spans.mean_us("dep.handle_datagram", DEPS, self_time=True),
        "dep.buffer_overflow": counter_delta(before, after, DEPS, "egress.buffer-overflow"),
        "dep.expired_on_arrival_pct": 100 * _ratio(
            counter_delta(before, after, DEPS, "session.expired-on-arrival"), received),
        "dep.access_requests_per_flow": _ratio(access_requests, traced.new_flows),
        "pdp.cache_hit_pct": 100 * _ratio(cache_hits, cache_hits + derived),
        "aasp.resolve_us": spans.mean_us("aasp.resolve", PDP),
        "pasp.pushes_applied": _ratio(
            counter_delta(before, after, PDP, "exchange.incremental-applied"), crud_ok),
        "pasp.crud_p50_ms": percentile(crud, 50, FAILED) if crud else 0.0,
        "process.vcsw_per_op": _ratio(untraced.vcsw, untraced.ops),
        "process.threads_max": sampler.threads_max,
        "harness.direct_rtt_p50_ms": direct_rtt_p50_ms,
        "harness.trace_overhead_pct": 100 * _ratio(cpu_traced - cpu_untraced, cpu_untraced),
        "harness.late_p99_ms": percentile(lateness, 99, FAILED) if lateness else 0.0,
    }
