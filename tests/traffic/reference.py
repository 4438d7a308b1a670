"""Per-record reference implementations of the columnar trace pipeline.

These are the record-at-a-time loops the array code in
:mod:`repro.traffic.trace`, :mod:`repro.traffic.replay` and
:mod:`repro.nic.topology` replaced, kept verbatim in behaviour as the
slow reference the property tests pin the fast paths against (as
:class:`repro.sim.reference.HeapSimulator` pins the calendar queue).
Everything works on plain Python lists and ints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.nic.flows import FlowSet
from repro.nic.rss import RssSteering
from repro.sim.units import SEC
from repro.traffic.trace import MAX_FRAME_LEN, Phase, TraceError

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


class ListSchedule:
    """The list-backed counting both arrival classes used to copy."""

    def __init__(self, times: List[int], flows: List[int], lens: List[int],
                 cycle: int, loop: bool, start: int = 0):
        self._times = times
        self._flows = flows
        self._lens = lens
        self._n = len(times)
        self._cycle = max(1, cycle)
        self.loop = loop
        self.start = start
        self.last_t = start
        self.total = 0

    def _count_at(self, t: int) -> int:
        rel = t - self.start
        if rel <= 0 or self._n == 0:
            return 0
        if not self.loop:
            return bisect_right(self._times, rel)
        cycles, rem = divmod(rel, self._cycle)
        return cycles * self._n + bisect_right(self._times, rem)

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
        rel = t - self.start
        if rel < 0:
            return self.start + self._times[0]
        if not self.loop:
            idx = bisect_right(self._times, rel)
            if idx >= self._n:
                return None
            return self.start + self._times[idx]
        cycles, rem = divmod(rel, self._cycle)
        idx = bisect_right(self._times, rem)
        if idx < self._n:
            return self.start + cycles * self._cycle + self._times[idx]
        return self.start + (cycles + 1) * self._cycle + self._times[0]

    def time_for_count(self, t: int, k: int) -> Optional[int]:
        if k <= 0:
            return t
        if self._n == 0:
            return None
        idx = self._count_at(t) + k - 1
        if not self.loop:
            if idx >= self._n:
                return None
            return self.start + self._times[idx]
        cycles, j = divmod(idx, self._n)
        return self.start + cycles * self._cycle + self._times[j]

    def flow_of(self, seq: int) -> Optional[int]:
        if self._n == 0:
            return None
        if self.loop:
            return self._flows[seq % self._n]
        if seq >= self._n:
            return None
        return self._flows[seq]

    def len_of(self, seq: int) -> Optional[int]:
        if self._n == 0:
            return None
        if self.loop:
            return self._lens[seq % self._n]
        if seq >= self._n:
            return None
        return self._lens[seq]


class ReferenceReplay(ListSchedule):
    """``TraceReplayProcess``, one record at a time."""

    def __init__(self, records: Sequence[Record], phases: Sequence[Phase],
                 duration_ns: int, speedup: float = 1.0, loop: bool = False,
                 jitter: float = 0.0, jitter_rng=None, start: int = 0):
        times: List[int] = []
        flows: List[int] = []
        lens: List[int] = []
        t_f = 0.0
        prev_rec = 0
        prev_out = 1
        for t_ns, length, flow in records:
            gap = (t_ns - prev_rec) / speedup
            if jitter > 0:
                gap *= 1.0 + jitter * (2.0 * jitter_rng.random() - 1.0)
            t_f += gap
            prev_rec = t_ns
            prev_out = max(prev_out, int(t_f))
            times.append(prev_out)
            flows.append(flow)
            lens.append(length)
        scaled_dur = int(duration_ns / speedup)
        cycle = max(scaled_dur, (times[-1] + 1) if times else 1)
        super().__init__(times, flows, lens, cycle, loop, start)
        # scaled (start, end, nominal_pps) windows for rate_at()
        self._windows: List[Tuple[int, int, float]] = []
        rec_times = [r[0] for r in records]
        for i, phase in enumerate(phases):
            lo = bisect_left(rec_times, phase.start_ns)
            if i == len(phases) - 1:
                hi = len(rec_times)
            else:
                hi = bisect_left(rec_times, phase.end_ns)
            s = int(phase.start_ns / speedup)
            e = max(s + 1, int(phase.end_ns / speedup))
            self._windows.append((s, e, (hi - lo) * SEC / (e - s)))
        if not phases and self._n:
            self._windows.append((0, self._cycle,
                                  self._n * SEC / self._cycle))

    def rate_at(self, t: int) -> float:
        if self._n == 0:
            return 0.0
        rel = t - self.start
        if self.loop:
            rel %= self._cycle
        for s, e, pps in self._windows:
            if s <= rel < e:
                return pps
        return 0.0


class ReferenceShard(ListSchedule):
    """``ReplayShard``: a queue's subsequence on the master's cycle."""

    def rate_at(self, t: int) -> float:
        if self._n == 0:
            return 0.0
        rel = t - self.start
        if self.loop:
            return self._n * SEC / self._cycle
        if 0 <= rel <= self._times[-1]:
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
            q = steering.queue_for(flows.header_of_flow(flow % nf))
            queue_of_flow[flow] = q
        per[q][0].append(t)
        per[q][1].append(flow)
        per[q][2].append(length)
    return [ReferenceShard(times, flow_ids, lens, master._cycle,
                           bool(master.loop), start=master.start)
            for times, flow_ids, lens in per]
