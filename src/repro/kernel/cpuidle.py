"""C-state exit-latency model (cpuidle).

When a core idles, the hardware drops into a power-saving C-state; the
deeper the state, the longer the wakeup takes.  Linux's *menu* governor
picks the state from the predicted idle residency, so **longer sleeps
wake up slower** — this is the mechanism behind the growth of
``hr_sleep()``'s overhead from ~2.8 us at a 1 us target to ~8.4 us at
200 us in the paper's Table 1 (see DESIGN.md and
:data:`repro.config.IDLE_EXIT_AMP_NS` for the calibration anchors).

We evaluate the curve on the *actual* idle interval at wakeup time; for
timer-driven sleeps on an otherwise idle core — the Table 1 scenario —
actual and predicted residency coincide.
"""

from __future__ import annotations

import math

from repro import config
from repro.kernel.cpu import Core
from repro.sim.rng import RandomStreams


def mean_exit_latency_ns(idle_ns: int) -> float:
    """Mean C-state exit latency for an idle interval of ``idle_ns``."""
    if idle_ns <= 0:
        return 0.0
    depth = 1.0 - math.exp(-idle_ns / config.IDLE_EXIT_TAU_NS)
    return config.IDLE_EXIT_BASE_NS + config.IDLE_EXIT_AMP_NS * depth


class CpuIdle:
    """Samples per-wakeup exit latencies (Gamma-distributed around the
    residency-dependent mean, CV from config)."""

    def __init__(self, streams: RandomStreams):
        self._rng = streams.stream("cpuidle")
        cv = config.IDLE_EXIT_CV
        #: Gamma shape implied by the coefficient of variation
        self._shape = 1.0 / (cv * cv)

    def exit_latency(self, core: Core) -> int:
        """Exit latency (ns) for ``core`` waking right now."""
        idle_ns = core.idle_duration()
        if idle_ns <= 0:
            return 0  # no idle interval (re-dispatch at the idle instant)
        mean = mean_exit_latency_ns(idle_ns)
        if mean <= 0:
            return 0
        scale = mean / self._shape
        return max(0, int(self._rng.gammavariate(self._shape, scale)))
