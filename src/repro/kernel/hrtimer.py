"""High-resolution per-core timers (the paper's Figure 1 wakeup path).

A real hrtimer expiry involves: the hardware timer (HPET / TSC-deadline)
raising an interrupt on the CPU that armed the timer; the CPU — possibly
waking from a C-state — entering ``hrtimer_interrupt``; and the expiry
callback (for sleep services, the wakeup of the sleeping thread).  Each
of those stages contributes latency that Metronome's precision argument
depends on, so each is modelled explicitly:

``expiry``  →  (+ TIMER_IRQ_LATENCY)  →  [C-state exit if core idle]
            →  (+ TIMER_IRQ_HANDLER, stolen from the running thread)
            →  callback

Timers are armed on the calling thread's core, like Linux pins an
``hrtimer_sleeper`` to the CPU that started it.
"""

from __future__ import annotations

from typing import Callable

from repro import config
from repro.kernel.cpu import Core


class HrTimer:
    """One armed high-resolution timer."""

    __slots__ = ("queue", "expiry", "callback", "_handle", "cancelled",
                 "fired", "fault_deferred")

    def __init__(self, queue: "HrTimerQueue", expiry: int, callback: Callable[[], None]):
        self.queue = queue
        self.expiry = expiry
        self.callback = callback
        self.cancelled = False
        self.fired = False
        #: set once a fault injector already stretched this fire, so one
        #: timer pays the miss penalty at most once
        self.fault_deferred = False
        self._handle = None

    def cancel(self) -> None:
        """Disarm; the callback will not run.  Idempotent; a no-op once
        the timer fired (the trace then shows fire, never cancel)."""
        if not self.fired and not self.cancelled:
            self.cancelled = True
            if self._handle is not None:
                self._handle.cancel()
            # prune immediately: _fire can no longer run for this timer,
            # so leaving it in _armed would leak it forever
            self.queue._armed.pop(id(self), None)
            tracer = self.queue.machine.tracer
            if tracer.enabled:
                tracer.timer_cancel(self.queue.core.index, self.expiry)


class HrTimerQueue:
    """The per-core hrtimer base: the pending timers armed on one core."""

    def __init__(self, machine: "Machine", core: Core):  # noqa: F821
        self.machine = machine
        self.sim = machine.sim
        self.core = core
        self._armed: dict = {}   # id(timer) -> timer (pending only)
        self._arm_seq = 0
        self.fired_count = 0

    def arm(self, expiry: int, callback: Callable[[], None]) -> HrTimer:
        """Arm a timer to fire the callback at absolute time ``expiry``.

        The hardware-interrupt pipeline latency is applied here: the
        callback actually runs at
        ``expiry + IRQ latency [+ C-state exit] + handler time``.
        """
        timer = HrTimer(self, expiry, callback)
        timer._handle = self.sim.call_at(
            expiry + config.TIMER_IRQ_LATENCY_NS, self._fire, timer
        )
        self._armed[id(timer)] = timer
        self._arm_seq += 1
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.timer_arm(self.core.index, expiry)
        return timer

    def snapshot_state(self) -> dict:
        """Checkpoint fingerprint: the armed-expiry multiset + counters.

        Timers hold live callbacks, so (like the event calendar) the
        snapshot pins the observable structure, not the objects.  Pure
        read — nothing is pruned or re-heaped.
        """
        return {
            "core": self.core.index,
            "armed": sorted(t.expiry for t in self._armed.values()),
            "fired_count": self.fired_count,
            "arm_seq": self._arm_seq,
        }

    # ------------------------------------------------------------------ #

    def _fire(self, timer: HrTimer) -> None:
        if timer.cancelled:
            self._armed.pop(id(timer), None)
            return
        faults = self.machine.faults
        if faults is not None and not timer.fault_deferred:
            # hrtimer-miss / IRQ-storm fault: the hardware interrupt is
            # delivered late (the timer stays armed and cancellable)
            extra = faults.timer_extra_latency_ns(self.core.index)
            if extra > 0:
                timer.fault_deferred = True
                # keep _handle pointing at the live event so a cancel
                # during the deferral removes the pending fire too
                timer._handle = self.sim.call_after(extra, self._fire, timer)
                return
        self._armed.pop(id(timer), None)
        timer.fired = True
        self.fired_count += 1
        core = self.core
        checks = self.machine.checks
        if checks is not None:
            checks.on_timer_fire(core.index, timer.expiry, self.sim.now)
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.timer_fire(core.index, timer.expiry, idle=not core.is_busy)
        if core.is_busy:
            # handler steals time from whatever the core is doing
            core.inject_irq_time(config.TIMER_IRQ_HANDLER_NS)
            self.sim.call_after(config.TIMER_IRQ_HANDLER_NS, self._run_callback, timer)
        else:
            # idle core: pay the C-state exit latency before the handler
            exit_ns = self.machine.cpuidle.exit_latency(core)
            core.exit_stall_ns += exit_ns
            core.irq_ns += config.TIMER_IRQ_HANDLER_NS
            end = self.machine.scheduler.occupy_idle_irq(
                core, exit_ns + config.TIMER_IRQ_HANDLER_NS
            )
            self.sim.call_at(end, self._run_callback_idle, timer)

    def _run_callback(self, timer: HrTimer) -> None:
        if self._wakeup_lost():
            return
        timer.callback()

    def _run_callback_idle(self, timer: HrTimer) -> None:
        if not self._wakeup_lost():
            timer.callback()
        # if the callback did not make anything runnable, drop back to idle
        self.machine.scheduler.settle_idle(self.core)

    def _wakeup_lost(self) -> bool:
        """Lost-wakeup fault: the interrupt ran but the expiry callback
        (the sleeping thread's wake) is dropped, modelling the wakeup
        races the paper's backup-timeout design guards against."""
        faults = self.machine.faults
        return faults is not None and faults.drop_wakeup(self.core.index)
