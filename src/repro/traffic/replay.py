"""Timestamp-faithful trace replay as an :class:`ArrivalProcess`.

:class:`TraceReplayProcess` turns a :class:`~repro.traffic.trace.Trace`
into the lazy monotonic counter the NIC layer consumes, reproducing the
DPDK PCAP sender v2 knob set (SNIPPETS.md §1):

* ``speedup=`` divides every inter-packet gap (2.0 → twice as fast);
* ``jitter=`` multiplies each gap by ``U(1-j, 1+j)`` drawn from a
  dedicated ``traffic.jitter`` RNG stream, so adding jitter never
  perturbs any other stochastic component;
* ``loop=`` repeats the trace end-to-end with exact cycle arithmetic.

The schedule is fixed at construction by one array expression over
the trace's columns; counting is the shared
:class:`~repro.nic.topology.FixedSchedule` arithmetic.  Because the
schedule is immutable after construction, a replayed run re-derives it
identically, which is what makes mid-trace :mod:`repro.sim.snapshot`
checkpoints verify byte-for-byte.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import numpy as np

from repro.nic.topology import FixedSchedule
from repro.sim.units import SEC
from repro.traffic.trace import Trace


class TraceReplayProcess(FixedSchedule):
    """Replay a trace's packet schedule through the ArrivalProcess API."""

    def __init__(
        self,
        trace: Trace,
        speedup: float = 1.0,
        loop: bool = False,
        jitter: float = 0.0,
        jitter_rng: Optional[random.Random] = None,
        start: int = 0,
    ):
        if speedup <= 0:
            raise ValueError("speedup must be positive")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if jitter > 0 and jitter_rng is None:
            raise ValueError(
                "jitter requires a dedicated RNG stream "
                "(streams.stream('traffic.jitter'))"
            )
        trace.validate()
        self.trace = trace
        self.speedup = speedup
        self.jitter = jitter

        # scaled, jittered offsets relative to `start`, non-decreasing,
        # >= 1 so the first packet is countable (arrivals live in
        # (start, t]); one jitter draw per record, in record order.
        # np.cumsum is a sequential left fold: bit-identical to adding
        # the gaps one record at a time
        gaps = np.diff(trace.times, prepend=0) / speedup
        if jitter > 0:
            u = np.array([jitter_rng.random() for _ in range(len(gaps))])
            gaps *= 1.0 + jitter * (2.0 * u - 1.0)
        times = np.cumsum(gaps).astype(np.int64)
        times[:1] = np.maximum(times[:1], 1)
        np.maximum.accumulate(times, out=times)
        scaled_dur = int(trace.duration_ns / speedup)
        cycle = max(scaled_dur, int(times[-1]) + 1 if len(times) else 1)
        super().__init__(times, trace.flows, trace.lens, cycle, loop, start)
        self._phase_windows = self._build_phase_windows()

    @property
    def trace_sha(self) -> str:
        """Content digest of the replayed trace (computed on each read)."""
        return self.trace.sha256()

    # -- phase bookkeeping ------------------------------------------------ #

    def _build_phase_windows(self) -> List[Tuple[int, int, float]]:
        """Scaled ``(start, end, nominal_pps)`` windows for rate_at()."""
        windows: List[Tuple[int, int, float]] = []
        if self.trace.phases:
            for phase, lo, hi in self.trace.phase_slices():
                s = int(phase.start_ns / self.speedup)
                e = max(s + 1, int(phase.end_ns / self.speedup))
                pps = (hi - lo) * SEC / (e - s)
                windows.append((s, e, pps))
        elif self._n:
            windows.append((0, self._cycle, self._n * SEC / self._cycle))
        return windows

    def phases_abs(self) -> List[Tuple[str, int, int]]:
        """Scaled phase windows in absolute sim time (first pass only).

        ``(name, start_ns, end_ns)`` per phase — the hook figures use to
        place phase-boundary probes and mark transitions.
        """
        out: List[Tuple[str, int, int]] = []
        for phase in self.trace.phases:
            s = self.start + int(phase.start_ns / self.speedup)
            e = self.start + max(s - self.start + 1,
                                 int(phase.end_ns / self.speedup))
            out.append((phase.name, s, e))
        return out

    def phase_boundaries(self) -> List[Tuple[int, str]]:
        """Absolute ``(t_ns, phase name)`` transition marks."""
        return [(s, name) for name, s, _e in self.phases_abs()]

    def rate_at(self, t: int) -> float:
        if self._n == 0:
            return 0.0
        rel = t - self.start
        if self.loop:
            rel %= self._cycle
        for s, e, pps in self._phase_windows:
            if s <= rel < e:
                return pps
        return 0.0

    # -- checkpointing ---------------------------------------------------- #

    def snapshot_state(self) -> dict:
        """Exact replay-cursor state for :mod:`repro.sim.snapshot`.

        The schedule itself is pinned by the trace content digest plus
        the replay knobs; the dynamic state is just the two counters.
        """
        return {
            "kind": "trace-replay",
            "trace_sha": self.trace_sha[:16],
            "n": self._n,
            "speedup": self.speedup,
            "loop": self.loop,
            "jitter": self.jitter,
            "start": self.start,
            "total": self.total,
            "last_t": self.last_t,
        }
