"""A fixed host-speed reference: a miniature discrete-event simulation.

This host's speed drifts by 20-40% over tens of seconds to minutes
(other tenants share its cores), which no run length within the time
budget averages out.  The benchmark therefore times this kernel between
repetitions and expresses host time in *reference seconds*: measured CPU
seconds scaled by ``NOMINAL_S / (the kernel's CPU seconds at that
moment)``.  Drift slows the kernel and the simulator alike, so it
largely cancels.

The kernel mimics the simulator's host profile — a calendar of list
entries, generator-driven threads yielding small action objects, a deque
of tagged packets — and its working set: a flow table of 2**17 objects
looked up at random.  A cache-resident kernel tracked the simulator
worse (it sped up ~45% in a quiet spell in which the simulator sped up
~24%).  The kernel belongs to the benchmark, not to the program under
test: it must never change, or every host metric shifts with it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from time import process_time
from typing import Dict

#: CPU seconds one kernel call takes on the reference host (a 2-vCPU
#: Intel Xeon VM); host metrics are expressed in these units
NOMINAL_S = 0.040
#: calendar entries one kernel call executes
EVENTS = 8_000
#: flows in the lookup table (its size sets the kernel's working set)
FLOWS = 1 << 17
THREADS = 256


class _Work:
    __slots__ = ("ns",)

    def __init__(self, ns: int) -> None:
        self.ns = ns


class _Packet:
    __slots__ = ("seq", "flow", "arrival")

    def __init__(self, seq: int, flow: int, arrival: int) -> None:
        self.seq = seq
        self.flow = flow
        self.arrival = arrival


class _Flow:
    __slots__ = ("hits", "bytes")

    def __init__(self) -> None:
        self.hits = 0
        self.bytes = 0


def flow_table() -> Dict[int, _Flow]:
    """The kernel's lookup table (build once, reuse across calls)."""
    return {i * 7919: _Flow() for i in range(FLOWS)}


def _thread(table: Dict[int, _Flow], ring: deque, seq: int, acc: list):
    """A receiver loop: take a burst, look its flows up, yield work."""
    while True:
        now = yield _Work(50)
        for _ in range(4):
            seq = (seq * 1103515245 + 12345) & 0x7FFFFFFF
            ring.append(_Packet(seq, ((seq >> 8) & (FLOWS - 1)) * 7919, now))
        while ring:
            pkt = ring.popleft()
            flow = table[pkt.flow]
            flow.hits += 1
            flow.bytes += 64 + now - pkt.arrival
            acc[0] += pkt.flow & 0xFFFF
        yield _Work(20 + (seq & 15))


def kernel(table: Dict[int, _Flow], events: int = EVENTS) -> int:
    """Execute ``events`` calendar entries; returns a checksum of the
    packets handled and the final simulated time."""
    acc = [0]
    threads = [_thread(table, deque(), i, acc) for i in range(THREADS)]
    for t in threads:
        next(t)
    calendar: list = []
    seq = 0
    for i, t in enumerate(threads):
        seq += 1
        heappush(calendar, [i, seq, (t,), None])
    when = 0
    for _ in range(events):
        entry = heappop(calendar)
        when = entry[0]
        (thread,) = entry[2]
        action = thread.send(when)
        seq += 1
        heappush(calendar, [when + action.ns, seq, (thread,), None])
    return acc[0] + when


class HostClock:
    """Converts host CPU seconds into reference seconds.

    Each :meth:`scale` call times the kernel once more and returns the
    factor for the work done since the previous call, from the mean of
    the two kernel timings that bracket it.
    """

    def __init__(self) -> None:
        self._table = flow_table()
        self._last = self._measure()

    def _measure(self) -> float:
        t0 = process_time()
        kernel(self._table)
        return process_time() - t0

    def scale(self) -> float:
        now = self._measure()
        factor = NOMINAL_S / ((self._last + now) / 2)
        self._last = now
        return factor
