"""Host speed reference: scales measured times to one reference speed.

On a shared virtual machine the speed of the benchmark's CPU changes from
one moment to the next, by up to a factor of two, as other tenants load the
host.  A time measured in one run then says as much about the host as about
the program.  So every run also times a fixed reference block at idle moments
(nothing in flight through the gateway), about every 20 ms, and scales each
measured time by ``REFERENCE_NS / (the block's time near it)``.  A scaled time
is what the measurement would read on a host where the block takes exactly
``REFERENCE_NS``.

The block is the benchmark's own code and calls nothing of flowgate, so a
change to the program cannot move it: per-frame-like Python work (struct,
bytes slices, a dict of small objects), an HMAC-SHA512 every eighth unit and
a loopback UDP datagram every fourth.
"""

from __future__ import annotations

import bisect
import hashlib
import hmac
import socket
import statistics
import struct
import time

REFERENCE_NS = 500_000     # the block's time at reference speed
EVERY_NS = 20_000_000      # at most one block per 20 ms
UNITS = 100                # units of work in one block

_HDR = struct.Struct(">6s6sH")
_KEY = bytes(range(64))
_FRAME = bytes(range(60))


def now_ns() -> int:
    return time.perf_counter_ns()


class _Entry:
    __slots__ = ("dst", "src", "tail")

    def __init__(self, dst: bytes, src: bytes):
        self.dst, self.src, self.tail = dst, src, []


def _unit(i: int, table: dict, tx: socket.socket, rx: socket.socket, to) -> None:
    dst, src, kind = _HDR.unpack_from(_FRAME, 0)
    entry = table.get((src, dst, kind, i & 63))
    if entry is None:
        entry = table[(src, dst, kind, i & 63)] = _Entry(dst, src)
    entry.tail.append(_FRAME[14:30])
    if len(entry.tail) > 8:
        del entry.tail[:4]
    out = _HDR.pack(src, dst, kind) + _FRAME[14:] + str(i).encode()
    if i % 8 == 0:
        hmac.new(_KEY, out, hashlib.sha512).digest()
    if i % 4 == 0:
        tx.sendto(out, to)
        rx.recv(2048)


class Speed:
    """Reference blocks of one run, and the scaling they imply.

    Call `tick` wherever the run is idle; it times a block when the last one
    is at least `every_ns` old, and returns the ns until the next is due.
    `spent_ns` and `spent_cpu_s` hold the wall and CPU time the blocks took,
    so that loop totals can leave them out.
    """

    def __init__(self, every_ns: int = EVERY_NS):
        self._every = every_ns
        self._next = 0
        self._tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._tx.bind(("127.0.0.1", 0))
        self._rx.bind(("127.0.0.1", 0))
        self._to = self._rx.getsockname()
        self._table: dict = {}
        self.at: list[int] = []         # midpoint of each block, ns
        self.block_ns: list[int] = []   # its duration
        self.spent_ns = 0
        self.spent_cpu_s = 0.0

    def close(self) -> None:
        self._tx.close()
        self._rx.close()

    def tick(self) -> int:
        if now_ns() >= self._next:
            self.sample()
        return self._next - now_ns()

    def sample(self) -> None:
        cpu0 = time.process_time()
        t0 = now_ns()
        for i in range(UNITS):
            _unit(i, self._table, self._tx, self._rx, self._to)
        t1 = now_ns()
        self.spent_cpu_s += time.process_time() - cpu0
        self.spent_ns += t1 - t0
        self.at.append((t0 + t1) // 2)
        self.block_ns.append(t1 - t0)
        self._next = t1 + self._every

    def factor_at(self, t: int) -> float:
        """Scale for a time measured around `t`: from the median of the three
        blocks nearest to it, so one block slowed by a busy service thread
        does not count."""
        if not self.at:
            raise RuntimeError("no reference block was timed")
        i = bisect.bisect_left(self.at, t)
        if i > 0 and (i == len(self.at) or t - self.at[i - 1] < self.at[i] - t):
            i -= 1
        lo = min(max(0, i - 1), max(0, len(self.at) - 3))
        return REFERENCE_NS / statistics.median(self.block_ns[lo:lo + 3])

    def factor_over(self, t0: int, t1: int) -> float:
        """Scale for a total measured over [t0, t1]: from the mean, over the
        blocks timed in it, of each block's median with its two neighbours.
        The mean tracks the host's mean speed there; the medians keep out a
        block slowed by a busy service thread."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        if hi - lo < 3:
            return self.factor_at((t0 + t1) // 2)
        b = self.block_ns
        return REFERENCE_NS / statistics.fmean(
            statistics.median(b[max(lo, i - 1):min(hi, i + 2)]) for i in range(lo, hi))
