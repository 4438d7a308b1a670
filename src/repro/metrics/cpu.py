"""Windowed CPU-utilization sampling.

The adaptation experiment (§5.3, Figure 11b) plots CPU usage over time;
:class:`CpuSampler` takes periodic snapshots of per-core busy counters
and reports per-window utilization in the paper's convention
(100% = one fully busy core).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.kernel.machine import Machine


class CpuSampler:
    """Samples utilization of selected cores every ``period_ns``."""

    def __init__(
        self,
        machine: Machine,
        period_ns: int,
        cores: Optional[List[int]] = None,
    ):
        if period_ns <= 0:
            raise ValueError("period must be positive")
        self.machine = machine
        self.period_ns = period_ns
        self.cores = list(range(len(machine.cores))) if cores is None else cores
        #: (window_end_ns, utilization) pairs; util in core-fractions
        self.samples: List[Tuple[int, float]] = []
        self._last_busy = machine.executing_ns(self.cores)
        self._last_t = machine.sim.now
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.machine.sim.call_after(self.period_ns, self._tick)

    def _tick(self) -> None:
        now = self.machine.sim.now
        busy = self.machine.executing_ns(self.cores)
        window = now - self._last_t
        if window > 0:
            self.samples.append(((now), (busy - self._last_busy) / window))
        self._last_busy = busy
        self._last_t = now
        self.machine.sim.call_after(self.period_ns, self._tick)

    def mean_utilization(self) -> float:
        if not self.samples:
            return 0.0
        return sum(u for _t, u in self.samples) / len(self.samples)
