"""Per-record reference implementations of the columnar trace pipeline.

These are the record-at-a-time loops the array code in
:mod:`repro.traffic.trace`, :mod:`repro.traffic.replay` and
:mod:`repro.nic.topology` replaced, kept verbatim in behaviour as the
slow reference the property tests pin the fast paths against (as
:class:`repro.sim.reference.HeapSimulator` pins the event core).
Everything works on plain Python lists and ints, except
:func:`gen_window`: the generator's window loop through the stdlib
``expovariate``/``randrange`` calls, filling the same buffers the
direct draws of :mod:`repro.traffic.generators` fill.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.nic.flows import FlowSet
from repro.nic.rss import RssSteering
from repro.sim.units import SEC
from repro.traffic.trace import MAX_FRAME_LEN, Phase, TraceError
from tests.nic.reference import queue_for

Record = Tuple[int, int, int]


def validate(records: Sequence[Record],
             phases: Sequence[Phase] = ()) -> None:
    """The record-by-record ``Trace.validate``."""
    prev_t = 0
    for i, (t, length, flow) in enumerate(records):
        if t < 0:
            raise TraceError(f"record {i}: negative arrival time {t}")
        if t < prev_t:
            raise TraceError(
                f"record {i}: arrival time {t} before previous {prev_t}"
            )
        if not 1 <= length <= MAX_FRAME_LEN:
            raise TraceError(f"record {i}: frame length {length} "
                             f"outside [1, {MAX_FRAME_LEN}]")
        if flow < 0:
            raise TraceError(f"record {i}: negative flow id {flow}")
        prev_t = t
    prev_end = 0
    for i, phase in enumerate(phases):
        if not phase.name:
            raise TraceError(f"phase {i}: empty name")
        if phase.end_ns <= phase.start_ns:
            raise TraceError(
                f"phase {phase.name!r}: end {phase.end_ns} <= "
                f"start {phase.start_ns}"
            )
        if phase.start_ns < prev_end:
            raise TraceError(
                f"phase {phase.name!r}: starts at {phase.start_ns}, "
                f"overlapping the previous phase (ends {prev_end})"
            )
        prev_end = phase.end_ns
    if phases and records:
        if records[-1][0] > phases[-1].end_ns:
            raise TraceError(
                f"last record at {records[-1][0]} lies past the "
                f"final phase end {phases[-1].end_ns}"
            )


def gen_window(rng, spec, w_start: int, w_end: int, times, flows) -> None:
    """``generators._gen_window`` through the stdlib calls: one
    ``expovariate`` per Poisson gap, one ``randrange`` per flow."""
    rate = spec.rate_pps
    if rate <= 0:
        return
    pick, n_flows = rng.randrange, spec.flows
    if spec.arrival == "cbr":
        # exact integer spacing: packet k >= 1 at w_start +
        # ceil(k * SEC / rate), for every k that lands by w_end
        count = (w_end - w_start) * rate // SEC
        times.extend(w_start + (k * SEC + rate - 1) // rate
                     for k in range(1, count + 1))
        flows.extend(pick(n_flows) for _ in range(count))
    else:  # poisson
        lam = rate / SEC  # packets per ns
        expo = rng.expovariate
        t = w_start
        while True:
            t += max(1, int(expo(lam)))
            if t > w_end:
                break
            times.append(t)
            flows.append(pick(n_flows))


class ListSchedule:
    """The list-backed counting both arrival classes used to copy."""

    def __init__(self, times: List[int], flows: List[int], lens: List[int]):
        self._times = times
        self._flows = flows
        self._lens = lens
        self._n = len(times)
        self.last_t = 0
        self.total = 0

    def _count_at(self, t: int) -> int:
        if t <= 0 or self._n == 0:
            return 0
        return bisect_right(self._times, t)

    def advance(self, t1: int) -> int:
        if t1 < self.last_t:
            raise ValueError(f"advance moving backwards: {t1} < {self.last_t}")
        n = self._count_at(t1) - self.total
        self.total += n
        self.last_t = t1
        return n

    def next_arrival_after(self, t: int) -> Optional[int]:
        if self._n == 0:
            return None
        if t < 0:
            return self._times[0]
        idx = bisect_right(self._times, t)
        if idx >= self._n:
            return None
        return self._times[idx]

    def time_for_count(self, t: int, k: int) -> Optional[int]:
        if k <= 0:
            return t
        if self._n == 0:
            return None
        idx = self._count_at(t) + k - 1
        if idx >= self._n:
            return None
        return self._times[idx]

    def flow_of(self, seq: int) -> Optional[int]:
        if self._n == 0 or seq >= self._n:
            return None
        return self._flows[seq]

    def len_of(self, seq: int) -> Optional[int]:
        if self._n == 0 or seq >= self._n:
            return None
        return self._lens[seq]


class ReferenceReplay(ListSchedule):
    """``TraceReplayProcess``, one record at a time."""

    def __init__(self, records: Sequence[Record], phases: Sequence[Phase],
                 duration_ns: int):
        times: List[int] = []
        flows: List[int] = []
        lens: List[int] = []
        prev_out = 1
        for t_ns, length, flow in records:
            prev_out = max(prev_out, t_ns)
            times.append(prev_out)
            flows.append(flow)
            lens.append(length)
        super().__init__(times, flows, lens)
        self._cycle = max(duration_ns, (times[-1] + 1) if times else 1)
        # (start, end, nominal_pps) windows for rate_at()
        self._windows: List[Tuple[int, int, float]] = []
        rec_times = [r[0] for r in records]
        for i, phase in enumerate(phases):
            lo = bisect_left(rec_times, phase.start_ns)
            if i == len(phases) - 1:
                hi = len(rec_times)
            else:
                hi = bisect_left(rec_times, phase.end_ns)
            s, e = phase.start_ns, phase.end_ns
            self._windows.append((s, e, (hi - lo) * SEC / (e - s)))
        if not phases and self._n:
            self._windows.append((0, self._cycle,
                                  self._n * SEC / self._cycle))

    def rate_at(self, t: int) -> float:
        if self._n == 0:
            return 0.0
        for s, e, pps in self._windows:
            if s <= t < e:
                return pps
        return 0.0


class ReferenceShard(ListSchedule):
    """``ReplayShard``: a queue's subsequence of the master schedule."""

    def rate_at(self, t: int) -> float:
        if self._n == 0:
            return 0.0
        if 0 <= t <= self._times[-1]:
            return self._n * SEC / max(1, self._times[-1])
        return 0.0


def shard(master: ListSchedule, num_queues: int,
          flows: FlowSet) -> List[ReferenceShard]:
    """``rss_shard``: steer each arrival's flow, append to its queue."""
    steering = RssSteering(num_queues)
    nf = flows.num_flows
    queue_of_flow: dict = {}
    per: List[Tuple[List[int], List[int], List[int]]] = [
        ([], [], []) for _ in range(num_queues)
    ]
    for t, flow, length in zip(master._times, master._flows, master._lens):
        q = queue_of_flow.get(flow)
        if q is None:
            q = queue_for(steering, flows.header_of_flow(flow % nf))
            queue_of_flow[flow] = q
        per[q][0].append(t)
        per[q][1].append(flow)
        per[q][2].append(length)
    return [ReferenceShard(times, flow_ids, lens)
            for times, flow_ids, lens in per]
