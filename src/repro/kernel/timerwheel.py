"""The kernel's low-resolution (jiffy) timers.

The paper's §3.1 describes the Linux "timer wheel" that sleep requests
are posted to: timers expire on jiffy boundaries, so low-resolution
timers have bounded but nonzero slack.  Linux stores them in a 9-level
wheel whose coarse levels cascade into finer ones.  The model keeps
only what its users see, the jiffy rounding and the firing order: one
map from expiry jiffy to callbacks.  Its users, the kernel-daemon
noise timers (:mod:`repro.kernel.noise`), are armed a few jiffies out,
inside the span of Linux's first level, where the wheel is exactly
such a map.  The high-resolution path (:mod:`repro.kernel.hrtimer`)
bypasses the wheel, exactly like ``hrtimer`` does in Linux.
"""

from __future__ import annotations

from typing import Callable, Dict, List


class DrivenTimerWheel:
    """Jiffy-granularity timers advanced by the simulator's clock.

    A delay rounds **up** to the next tick (a timer never fires early,
    and a zero delay fires on the next tick); timers due on the same
    tick fire in the order they were added.  A tick event is scheduled
    for every jiffy while any timer is pending, and none while the
    wheel is idle.
    """

    def __init__(self, sim: "Simulator", tick_ns: int = 1_000_000):  # noqa: F821
        if tick_ns <= 0:
            raise ValueError("tick_ns must be positive")
        self.sim = sim
        self.tick_ns = tick_ns
        self.current_tick = sim.now // tick_ns
        #: expiry tick -> callbacks, in the order they were added
        self._due: Dict[int, List[Callable[[], None]]] = {}
        self.pending = 0
        self._tick_armed = False

    def add(self, delay_ns: int, callback: Callable[[], None]) -> None:
        """Arm a low-resolution timer ``delay_ns`` from now."""
        if delay_ns < 0:
            raise ValueError("negative delay")
        # keep the wheel's notion of now current before inserting
        self._advance()
        expiry = self.current_tick + max(1, -(-delay_ns // self.tick_ns))
        self._due.setdefault(expiry, []).append(callback)
        self.pending += 1
        self._arm_tick()

    def _advance(self) -> None:
        """Fire every timer due on a tick up to the simulator's now."""
        target = self.sim.now // self.tick_ns
        while self.current_tick < target:
            self.current_tick += 1
            for callback in self._due.pop(self.current_tick, ()):
                self.pending -= 1
                callback()

    def _arm_tick(self) -> None:
        if self._tick_armed or self.pending == 0:
            return
        next_tick_time = (self.current_tick + 1) * self.tick_ns
        self._tick_armed = True
        self.sim.call_at(max(next_tick_time, self.sim.now), self._on_tick)

    def _on_tick(self) -> None:
        self._tick_armed = False
        self._advance()
        self._arm_tick()
