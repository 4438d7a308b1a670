"""Timestamp-faithful trace replay as an :class:`ArrivalProcess`.

:class:`TraceReplayProcess` turns a :class:`~repro.traffic.trace.Trace`
into the lazy monotonic counter the NIC layer consumes: every record
arrives at its own timestamp, once.

The schedule is the trace's time column, fixed at construction by one
array expression; counting is the shared
:class:`~repro.nic.topology.FixedSchedule` arithmetic.  Because the
schedule is immutable after construction, a replayed run re-derives it
identically, which is what makes mid-trace :mod:`repro.sim.snapshot`
checkpoints verify byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Tuple

import numpy as np

from repro.nic.topology import FixedSchedule
from repro.sim.units import SEC
from repro.traffic.trace import Trace


class TraceReplayProcess(FixedSchedule):
    """Replay a trace's packet schedule through the ArrivalProcess API."""

    def __init__(self, trace: Trace):
        trace.validate()
        self.trace = trace
        # arrivals live in (0, t]: a record at t=0 is counted at 1 ns.
        # Times are validated non-decreasing, so only a trace starting
        # at 0 needs its own schedule; any other shares the trace's.
        times = trace.times
        if len(times) and times[0] < 1:
            times = np.maximum(times, 1)
        super().__init__(times, trace.flows, trace.lens)
        self._cycle = max(trace.duration_ns,
                          self._times[-1] + 1 if self._n else 1)
        self._phase_windows = self._build_phase_windows()

    @property
    def trace_sha(self) -> str:
        """Content digest of the replayed trace (computed on each read)."""
        return self.trace.sha256()

    @property
    def cycle_ns(self) -> int:
        """Length of one pass of the trace: its duration, past the last
        arrival."""
        return self._cycle

    # -- phase bookkeeping ------------------------------------------------ #

    def _build_phase_windows(self) -> List[Tuple[int, int, float]]:
        """``(start, end, nominal_pps)`` windows for rate_at()."""
        windows: List[Tuple[int, int, float]] = []
        if self.trace.phases:
            for phase, lo, hi in self.trace.phase_slices():
                s, e = phase.start_ns, phase.end_ns
                windows.append((s, e, (hi - lo) * SEC / (e - s)))
        elif self._n:
            windows.append((0, self._cycle, self._n * SEC / self._cycle))
        return windows

    def phases_abs(self) -> List[Tuple[str, int, int]]:
        """Phase windows in absolute sim time.

        ``(name, start_ns, end_ns)`` per phase — the hook figures use to
        place phase-boundary probes and mark transitions.
        """
        return [(p.name, p.start_ns, p.end_ns) for p in self.trace.phases]

    def phase_boundaries(self) -> List[Tuple[int, str]]:
        """Absolute ``(t_ns, phase name)`` transition marks."""
        return [(s, name) for name, s, _e in self.phases_abs()]

    def rate_at(self, t: int) -> float:
        for s, e, pps in self._phase_windows:
            if s <= t < e:
                return pps
        return 0.0

    # -- checkpointing ---------------------------------------------------- #

    def snapshot_state(self) -> dict:
        """Exact replay-cursor state for :mod:`repro.sim.snapshot`.

        The schedule is pinned by a digest of its three columns and the
        trace's phases; the dynamic state is just the two counters.
        """
        digest = hashlib.sha256()
        for column in (self._schedule, self._flows, self._lens):
            digest.update(column)
        digest.update(json.dumps(
            [p.to_dict() for p in self.trace.phases]).encode())
        return {
            "kind": "trace-replay",
            "schedule_sha": digest.hexdigest()[:16],
            "n": self._n,
            "total": self.total,
            "last_t": self.last_t,
        }
