"""Gateway benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload echo-noop --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the program is imported from its `src/`
directory and nowhere else.  The process pins itself to one CPU before it
starts any thread, so the services and the generator share that CPU.

With `--trace 0` the run sets the topology up several times (the median is
`setup_s`), keeps the last one, measures for `--seconds` and prints the
end-to-end metrics.  Every time is scaled to the reference speed of
`speed.py`, measured in the same run.  With `--trace 1` it sets up once, measures the direct
round trip with no gateway in the path, then runs two timed phases of half
`--seconds` each on the same topology, the first plain and the second with
every layer traced, and prints the per-layer metrics; the spans go to
`.perfbench/` in the checkout.

The last line of standard output is the result: `correct`, `attempted`,
`failed` and `metrics`, named and ordered as in `BENCHMARK.json`.  The exit code is 1 if a correctness check failed.  A
run that cannot be made (no sources, an unknown workload, a set-up that never
completes) exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import statistics
import sys

from stats import FAILED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DIRECT_SECONDS = 1.0


def pin_to_one_cpu() -> int:
    """Pin this process (and every thread it starts later) to the highest CPU
    it may run on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `kind` ("end_to_end" or "per_layer") metrics in
    `BENCHMARK.json`, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def with_units(values: dict[str, float], kind: str) -> dict[str, tuple[float, str]]:
    units = metric_units(kind)
    if set(values) != set(units):
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    return {name: (values[name], unit) for name, unit in units.items()}


def direct_rtt_p50_ms(w, seed: int, speed) -> float:
    """The same generator and pinning with no gateway: the floor under the RTT."""
    import random

    import gen
    from flowgate.bench.echo import DEFAULT_ACTIVE, DEFAULT_PASSIVE
    from stats import percentile
    from workloads import MS, RESEND_MS

    active = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    passive = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        active.bind(("127.0.0.1", 0))
        passive.bind(("127.0.0.1", 0))
        dev = gen.Devices(active, passive, passive.getsockname(), active.getsockname())
        flow = gen.Flow(DEFAULT_ACTIVE, DEFAULT_PASSIVE, DEFAULT_PASSIVE.port, w.frame_size,
                        random.Random(seed))
        loop = gen.closed_loop(dev, flow, gen.now_ns() + int(DIRECT_SECONDS * 1e9),
                               1_000_000_000, RESEND_MS * MS, speed.tick)
        dev.close()
        speed.sample()
        if dev.corrupt or gen.FAILED in loop.latencies:
            raise RuntimeError("direct round trips lost or corrupted a frame")
        rtts = [v * speed.factor_at((t0 + t1) // 2)
                for v, (t0, t1) in zip(loop.latencies, loop.intervals)]
        return percentile(rtts, 50, gen.FAILED)
    finally:
        active.close()
        passive.close()


def end_to_end(w, setups: list[float], phase) -> dict[str, float]:
    from stats import percentile, within_pct

    lat = phase.latencies
    completed = sum(1 for v in lat if v != FAILED)
    if not lat or not phase.ops or not completed:
        raise RuntimeError("the timed phase completed no operation")
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile(lat, 50, w.deadline_ms),
        "within_limit_pct": within_pct(lat, w.limit_ms),
        "delivered_pct": 100.0 * completed / len(lat),
        "echo_pps": completed / phase.wall_s,
        "cpu_ms_per_op": phase.cpu_s * 1e3 / phase.ops,
    }


def traced_run(w, args, stack) -> tuple[dict[str, float], list]:
    import layers
    import workloads
    from gen import now_ns
    from spans import SpanStats, Tracer, flowgate_targets

    direct = direct_rtt_p50_ms(w, args.seed, stack.speed)
    untraced = workloads.timed_phase(stack, args.seconds / 2)
    services = stack.topo.services
    sampler = layers.Sampler(services["dep-a"].egress_decisions, now_ns)
    tracer = Tracer(flowgate_targets())
    before = {name: s.metrics.dump() for name, s in services.items()}
    stack.dev.on_poll = sampler
    tracer.install()
    try:
        traced = workloads.timed_phase(stack, args.seconds / 2)
    finally:
        tracer.uninstall()
        stack.dev.on_poll = None
    after = {name: s.metrics.dump() for name, s in services.items()}
    values = layers.per_layer(SpanStats(tracer.spans), before, after, sampler, traced,
                              untraced, direct)
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{w.name}-seed{args.seed}.csv"))
    return values, [untraced, traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flowgate", "__init__.py")):
        print(f"no flowgate sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    pin_to_one_cpu()

    import workloads
    from speed import Speed

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    setups: list[float] = []
    corrupt = leaks = 0
    stack = None
    speed = Speed()
    try:
        for _ in range(1 if args.trace else w.setups):
            if stack is not None:
                corrupt += stack.dev.corrupt
                leaks += stack.dev.leaks
                stack.close()
            stack = workloads.set_up(w, args.seed, speed)
            setups.append(stack.setup_s)
        if args.trace:
            values, phases = traced_run(w, args, stack)
            metrics = with_units(values, "per_layer")
        else:
            phase = workloads.timed_phase(stack, args.seconds)
            metrics, phases = with_units(end_to_end(w, setups, phase), "end_to_end"), [phase]
        corrupt += stack.dev.corrupt
        leaks += stack.dev.leaks
    finally:
        if stack is not None:
            stack.close()
        speed.close()

    attempted = sum(p.attempted + p.extra_attempts for p in phases)
    bad_status = sum(p.crud_bad_status for p in phases)
    failed = (sum(1 for p in phases for v in p.loop.latencies if v == FAILED)
              + sum(p.crud_failed for p in phases) + bad_status + corrupt + leaks)
    correct = corrupt == 0 and leaks == 0 and bad_status == 0
    if not correct:
        print(f"correctness violated: {corrupt} corrupted echoes, {leaks} frames of "
              f"ungranted flows delivered, {bad_status} CRUD calls refused", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
