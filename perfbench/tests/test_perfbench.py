"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

They cover the latency arithmetic, the scaling to the reference speed,
open-loop timing from the due time, the correctness checks on echoes and on
ungranted flows, the exit code of a run that violates them, the metric names
against BENCHMARK.json, and the tracer's parent, key and self-time
bookkeeping.
"""

import json
import os
import random
import socket
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from flowgate.bench.echo import DEFAULT_ACTIVE, DEFAULT_PASSIVE  # noqa: E402
from stats import FAILED, percentile, within_pct  # noqa: E402

MS = 1_000_000


# -- arithmetic ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50, 1e9) == 50
    assert percentile(values, 99, 1e9) == 99
    assert percentile(values, 100, 1e9) == 100
    assert percentile([7.0], 1, 1e9) == 7.0
    ten = [float(v) for v in range(1, 11)]
    assert percentile(ten, 25, 1e9) == 3.0  # rank ceil(2.5), not round(2.5)
    assert percentile(ten, 95, 1e9) == 10.0
    with pytest.raises(ValueError):
        percentile([], 50, 1.0)
    with pytest.raises(ValueError):
        percentile([1.0], 0, 1.0)


def test_failures_sort_last_and_read_as_the_ceiling():
    values = [1.0, 2.0, FAILED, FAILED]
    assert percentile(values, 50, 2_000) == 2.0
    assert percentile(values, 75, 2_000) == 2_000
    assert percentile([FAILED], 50, 3_000) == 3_000


def test_within_limit_share_counts_failures_against_attempts():
    values = [1.0, 5.0, 6.0, 7.0, FAILED]
    assert within_pct(values, 6.0) == pytest.approx(60.0)
    assert within_pct(values, 1e9) == pytest.approx(80.0)
    with pytest.raises(ValueError):
        within_pct([], 6.0)


# -- reference speed ------------------------------------------------------------


def _speed_with(blocks):
    """A Speed whose blocks were timed at 10, 20, 30, ... ns."""
    s = speed.Speed()
    s.close()
    s.at = [10 * (i + 1) for i in range(len(blocks))]
    s.block_ns = list(blocks)
    return s


def test_a_time_is_scaled_by_the_median_of_the_nearest_blocks():
    ref = speed.REFERENCE_NS
    s = _speed_with([ref, ref, 2 * ref, 2 * ref, 2 * ref, 9 * ref])
    assert s.factor_at(12) == 1.0           # blocks 1-3: ref, ref, 2 ref
    assert s.factor_at(40) == 0.5           # blocks 3-5: all 2 ref
    assert s.factor_at(1_000) == 0.5        # the last three: 2, 2, 9 ref
    assert s.factor_at(0) == 1.0


def test_a_total_is_scaled_by_the_mean_speed_within_it_without_single_outliers():
    ref = speed.REFERENCE_NS
    # the 9 ref block is an outlier; its neighbours' medians leave it out
    s = _speed_with([ref, ref, 9 * ref, ref, ref, 3 * ref, 3 * ref, 3 * ref])
    assert s.factor_over(0, 100) == pytest.approx(1 / 1.75)   # (5 ref + 3 * 3 ref) / 8
    assert s.factor_over(10, 50) == pytest.approx(1.0)
    assert s.factor_over(11, 15) == s.factor_at(13)           # too few blocks inside


def test_a_real_block_is_timed_and_left_out_of_loop_totals():
    s = speed.Speed(every_ns=10**12)
    try:
        assert s.tick() > 0 and len(s.block_ns) == 1
        s.tick()                              # not due again
        assert len(s.block_ns) == 1
        assert s.spent_ns == s.block_ns[0] and s.spent_cpu_s > 0
    finally:
        s.close()


# -- open-loop timing -----------------------------------------------------------


class ScriptedDevices:
    """Echoes every frame `echo_after_ns` after it was sent, except those
    whose sequence number is in `drop`."""

    def __init__(self, echo_after_ns: int, drop=()):
        self.echo_after_ns = echo_after_ns
        self.drop = set(drop)
        self.pending: dict[int, int] = {}
        self.next_seq = 1

    def send(self, _flow) -> int:
        seq = self.next_seq
        self.next_seq += 1
        if seq not in self.drop:
            self.pending[seq] = gen.now_ns() + self.echo_after_ns
        return seq

    def poll(self, timeout_s: float):
        time.sleep(min(max(timeout_s, 0.0), 0.002))
        now = gen.now_ns()
        ready = [(seq, at) for seq, at in self.pending.items() if at <= now]
        for seq, _ in ready:
            del self.pending[seq]
        return ready


def test_open_loop_times_each_frame_from_its_due_time():
    # The first frame was due 100 ms before the loop starts: its latency
    # includes those 100 ms, and so does the generator's lateness.
    dev = ScriptedDevices(echo_after_ns=1 * MS)
    start = gen.now_ns() - 100 * MS
    result = gen.open_loop(dev, None, start, 200 * MS, start + 1, 2_000 * MS)
    assert len(result.latencies) == 1
    assert result.latencies[0] >= 100 + 1
    assert result.lateness[0] >= 100


def test_round_trip_resends_a_lost_frame_and_times_from_the_first_send():
    dev = ScriptedDevices(echo_after_ns=1 * MS, drop={1})
    rtt = gen.round_trip(dev, None, 1_000 * MS, 10 * MS)
    assert dev.next_seq - 1 == 2
    assert 10 + 1 <= rtt < 1_000


def test_round_trip_ignores_a_late_echo_of_an_earlier_round_trip():
    dev = ScriptedDevices(echo_after_ns=1 * MS)
    dev.pending[99] = gen.now_ns()  # a copy sent by an earlier round trip
    rtt = gen.round_trip(dev, None, 1_000 * MS, 100 * MS)
    assert rtt >= 1
    assert dev.next_seq - 1 == 1


def test_round_trip_fails_after_its_timeout():
    dev = ScriptedDevices(echo_after_ns=1 * MS, drop={1, 2, 3, 4})
    assert gen.round_trip(dev, None, 30 * MS, 10 * MS) == FAILED


def test_open_loop_calls_idle_only_with_nothing_in_flight():
    dev = ScriptedDevices(echo_after_ns=3 * MS)
    in_flight_at_idle = []

    def idle():
        in_flight_at_idle.append(len(dev.pending))
        return 1 * MS

    start = gen.now_ns() + 5 * MS
    result = gen.open_loop(dev, None, start, 20 * MS, start + 100 * MS, 50 * MS, idle)
    assert len(result.latencies) == 5
    assert in_flight_at_idle and set(in_flight_at_idle) == {0}
    assert all(t0 < t1 for t0, t1 in result.intervals)


def test_churn_loop_idles_again_after_a_flow_echoed_past_its_give_up():
    # the first flow gives up at 20 ms, but its echoes arrive from 30 ms on
    dev = ScriptedDevices(echo_after_ns=30 * MS)
    idle_at = []

    def idle():
        idle_at.append(gen.now_ns())
        return 5 * MS

    start = gen.now_ns() + 5 * MS
    flows = [gen.ChurnFlow(None, start, True), gen.ChurnFlow(None, start + 150 * MS, True)]
    result = gen.churn_loop(dev, flows, 5 * MS, 20 * MS, idle)
    assert result.latencies[0] == FAILED
    assert any(start + 60 * MS < t < start + 140 * MS for t in idle_at)


def test_open_loop_sends_on_schedule_and_fails_frames_past_the_deadline():
    dev = ScriptedDevices(echo_after_ns=2 * MS, drop={2})
    start = gen.now_ns() + 5 * MS
    result = gen.open_loop(dev, None, start, 20 * MS, start + 60 * MS, 50 * MS)
    assert dev.next_seq - 1 == 3  # due at 0, 20 and 40 ms
    assert sorted(result.latencies)[-1] == FAILED
    assert sum(1 for v in result.latencies if v == FAILED) == 1
    assert all(2 <= v < 50 for v in result.latencies if v != FAILED)


# -- correctness checks -------------------------------------------------------------


@pytest.fixture
def direct_devices():
    active = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    passive = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    active.bind(("127.0.0.1", 0))
    passive.bind(("127.0.0.1", 0))
    dev = gen.Devices(active, passive, passive.getsockname(), active.getsockname(),
                      denied_ports=frozenset({43_000}))
    yield dev
    dev.close()
    active.close()
    passive.close()


def _flow(port: int, size: int = 60) -> gen.Flow:
    return gen.Flow(DEFAULT_ACTIVE, DEFAULT_PASSIVE, port, size, random.Random(5))


def _poll_until(dev, condition, seconds: float = 2.0):
    deadline = time.time() + seconds
    echoes = []
    while time.time() < deadline and not condition():
        echoes += dev.poll(0.01)
    return echoes


def test_a_clean_echo_passes_the_checks(direct_devices):
    dev = direct_devices
    rtt = gen.round_trip(dev, _flow(40_001, 1514), 1_000 * MS, 100 * MS)
    assert rtt != FAILED
    assert (dev.corrupt, dev.leaks, dev.delivered) == (0, 0, 1)


def test_a_corrupted_echo_is_caught(direct_devices):
    dev = direct_devices
    flow = _flow(40_001)
    seq = dev.send(flow)
    _poll_until(dev, lambda: dev.delivered == 1)
    frame = bytearray(gen.echo_of(flow.frame(seq)))
    frame[-1] ^= 0x01  # one payload bit flipped on the way back
    dev.passive.sendto(bytes(frame), dev.active.getsockname())
    echoes = _poll_until(dev, lambda: dev.corrupt == 1)
    assert dev.corrupt == 1
    # the genuine echo still verifies; the corrupted one is never reported
    assert [s for s, _ in echoes].count(seq) <= 1


def test_a_leaked_frame_of_an_ungranted_flow_is_caught(direct_devices):
    dev = direct_devices
    seq = dev.send(_flow(43_000))
    echoes = _poll_until(dev, lambda: dev.leaks == 1)
    assert dev.leaks == 1
    assert seq not in [s for s, _ in echoes]  # and it is not echoed


def test_echo_swaps_addresses_and_keeps_the_payload():
    flow = _flow(41_000)
    frame = flow.frame(9)
    reply = gen.echo_of(frame)
    assert reply[0:6] == frame[6:12] and reply[6:12] == frame[0:6]
    assert reply[26:30] == frame[30:34] and reply[30:34] == frame[26:30]
    assert gen.frame_dstport(reply) == DEFAULT_ACTIVE.port
    assert reply[gen.HEADER_LEN:] == flow.payload(9)
    assert gen.echo_of(reply) == frame


def test_a_violation_makes_the_run_exit_non_zero(monkeypatch, capsys):
    import workloads

    def fake_set_up(w, seed, speed):
        dev = types.SimpleNamespace(corrupt=0, leaks=1)
        return types.SimpleNamespace(dev=dev, close=lambda: None, setup_s=0.1)

    def fake_phase(stack, seconds):
        loop = gen.LoopResult(latencies=[1.0, 2.0], wall_s=1.0)
        return workloads.Phase(loop=loop, latencies=[1.0, 2.0], wall_s=1.0, attempted=2,
                               ops=2, cpu_s=0.002, vcsw=0, one_way_frames=4)

    monkeypatch.setattr(workloads, "set_up", fake_set_up)
    monkeypatch.setattr(workloads, "timed_phase", fake_phase)
    monkeypatch.setattr(run, "pin_to_one_cpu", lambda: 0)
    code = run.main(["--workload", "echo-noop", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.metric_units("end_to_end"))


def test_per_layer_names_match_benchmark_json():
    import layers
    import workloads

    loop = gen.LoopResult(latencies=[1.0], wall_s=1.0)
    phase = workloads.Phase(loop=loop, latencies=[1.0], wall_s=1.0, attempted=1, ops=1,
                            cpu_s=0.001, vcsw=0, one_way_frames=2)
    sampler = types.SimpleNamespace(store_max=0, threads_max=1)
    counters = {service: {} for service in layers.PROGRAM}
    values = layers.per_layer(spans.SpanStats([]), counters, counters, sampler, phase, phase,
                              0.1)
    assert set(run.with_units(values, "per_layer")) == set(run.metric_units("per_layer"))


# -- tracer ---------------------------------------------------------------------------


def test_spans_record_parents_root_keys_and_self_time():
    toy = types.SimpleNamespace()

    def leaf(frame):
        time.sleep(0.002)

    def root(frame):
        time.sleep(0.002)
        toy.leaf(frame)
        toy.leaf(frame)

    toy.leaf, toy.root = leaf, root
    frame = _flow(40_001).frame(77)
    tracer = spans.Tracer([
        spans.Target(toy, "root", "toy.root"),
        spans.Target(toy, "leaf", "toy.leaf", spans.key_from_frame),
    ])
    tracer.install()
    try:
        toy.root(frame)
    finally:
        tracer.uninstall()
    assert toy.root is root and toy.leaf is leaf
    stats = spans.SpanStats(tracer.spans)
    (top,) = stats.select("toy.root")
    leaves = stats.select("toy.leaf")
    assert len(leaves) == 2 and all(s.parent == top.id for s in leaves)
    assert set(tracer.root_keys().values()) == {77}  # set by a child, shared by all
    children = sum(s.end - s.start for s in leaves)
    assert stats.self_ns(top) == (top.end - top.start) - children
    assert stats.child_count(top, "toy.leaf") == 2
