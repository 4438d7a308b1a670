"""The two timed-sleep services under study (paper §3.1, Figure 1).

Both services share the same skeleton — enter the kernel, run a
*preamble*, arm a high-resolution timer, leave the CPU, and on expiry run
a *postamble* on the way back to user space — but differ in three
structural ways that the paper identifies:

``nanosleep()`` (:class:`Nanosleep`)
    * preamble includes the cross-ring ``copy_from_user`` of
      ``struct timespec`` (plus the KPTI-induced TLB miss) and the
      multi-field → ktime conversion;
    * the sleeper entry lives outside the stack (allocator interaction on
      the resume path);
    * most importantly, as a *range* hrtimer it is subject to the
      SCHED_OTHER **timer slack** (50 us by default) — the dominant term
      behind Table 1's ≈58 us overhead.

``hr_sleep()`` (:class:`HrSleep`)
    * single-register argument: no cross-ring move, no conversion;
    * on-stack timer entry: no allocator interaction;
    * a precise (non-range) timer: no slack.

Because the preamble is ordinary preemptible compute, a heavily shared
core can preempt the thread *before the timer is armed* — the
unpredictability the paper describes — and the longer nanosleep preamble
is proportionally more exposed.

The wakeup pipeline (HPET interrupt latency, C-state exit, handler time,
scheduler dispatch) is shared; see :mod:`repro.kernel.hrtimer` and
:mod:`repro.kernel.cpuidle`.
"""

from __future__ import annotations

from functools import partial
from typing import Generator

from repro import config
from repro.kernel.thread import Compute, KThread, Suspend


class SleepService:
    """Base class: a timed sleep entered via syscall.

    Subclasses define the preamble/postamble costs and how the timer
    expiry is derived from the requested duration.
    """

    #: human-readable name used in reports
    name = "sleep"

    def __init__(self, machine: "Machine"):  # noqa: F821
        self.machine = machine
        self._rng = machine.streams.stream(f"sleep.{self.name}")
        #: completed-call counter, owned by the machine's metrics
        #: registry (read back through the ``calls`` property)
        self._calls = machine.metrics.counter(
            machine.metrics.unique_name(f"sleep.{self.name}.calls")
        )
        #: §5.4 patch: if > 0, requests below this granularity return
        #: immediately instead of arming a timer (sub-us hr_sleep patch)
        self.immediate_below_ns = 0

    @property
    def calls(self) -> int:
        """Number of completed sleep calls (all threads)."""
        return self._calls.value

    # -- knobs implemented by subclasses -------------------------------- #

    def preamble_ns(self) -> int:
        raise NotImplementedError

    def postamble_ns(self) -> int:
        raise NotImplementedError

    def expiry_for(self, now: int, duration_ns: int) -> int:
        raise NotImplementedError

    # -- the call itself ------------------------------------------------ #

    def call(self, kt: KThread, duration_ns: int) -> Generator:
        """Generator to be ``yield from``-ed inside a thread body.

        Sequence: syscall entry + preamble (preemptible compute), arm the
        timer, leave the CPU, and on wakeup run the postamble.
        """
        if duration_ns < 0:
            raise ValueError(f"negative sleep {duration_ns}")
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.sleep_enter(kt, duration_ns, self.name)
        half_entry = config.SYSCALL_ENTRY_EXIT_NS // 2
        if 0 < duration_ns < self.immediate_below_ns:
            # the paper's §5.4 patch: sub-granularity requests return
            # right away (degenerates towards continuous polling)
            yield Compute(config.SYSCALL_ENTRY_EXIT_NS)
            self._calls.inc()
            if tracer.enabled:
                tracer.sleep_return(kt, immediate=True)
            return
        yield Compute(half_entry + self._jitter(self.preamble_ns()))
        now = self.machine.sim.now
        expiry = self.expiry_for(now, duration_ns)
        faults = self.machine.faults
        if faults is not None:
            # clock-drift fault: the timebase the expiry is programmed
            # against runs slow, so the sleep systematically overshoots
            expiry += faults.sleep_skew_ns(duration_ns)
        if expiry <= now:
            # sub-granularity request: return immediately (the paper's
            # §5.4 patch makes hr_sleep return for sub-us requests)
            yield Compute(self._jitter(self.postamble_ns()) + half_entry)
            self._calls.inc()
            if tracer.enabled:
                tracer.sleep_return(kt, immediate=True)
            return
        # cross-socket timer-IRQ delivery: the timer fabric homes on
        # node 0, so sleepers on a remote socket see expiry later
        # (exactly 0 on the paper's single-node testbed — byte-identical)
        expiry += self.machine.wake_penalty_ns(kt.core)
        queue = self.machine.hrtimers[kt.core.index]
        # the wake is the expiry callback's last act: a tail-position wake
        timer = queue.arm(expiry,
                          partial(self.machine.scheduler.wake, kt, tail=True))
        if tracer.enabled:
            tracer.sleep_armed(kt, expiry)
        yield Suspend()
        checks = self.machine.checks
        if checks is not None:
            # timer.fired distinguishes a timer-driven wake (bound by
            # the expiry) from an external early wake (watchdog, fault
            # injection), which is legal at any time
            checks.on_sleep_wake(kt, expiry, self.machine.sim.now,
                                 timer.fired)
        self._calls.inc()
        yield Compute(self._jitter(self.postamble_ns()) + half_entry)
        if tracer.enabled:
            tracer.sleep_return(kt)

    def _jitter(self, mean_ns: int) -> int:
        """±10% uniform jitter on a kernel-path cost."""
        return max(0, int(mean_ns * self._rng.uniform(0.9, 1.1)))

    def cpu_cost_per_call_ns(self) -> int:
        """Mean CPU consumed per call (for analytical cross-checks)."""
        return (
            config.SYSCALL_ENTRY_EXIT_NS + self.preamble_ns() + self.postamble_ns()
        )


class Nanosleep(SleepService):
    """The stock POSIX ``nanosleep()`` path (syscall 35)."""

    name = "nanosleep"

    def __init__(self, machine):
        super().__init__(machine)
        self.timer_slack_ns = machine.cfg.timer_slack_ns
        #: probability that another event in the slack range lets the
        #: range timer coalesce and fire before its hard expiry
        self.coalesce_prob = 0.05

    def preamble_ns(self) -> int:
        return config.NANOSLEEP_PREAMBLE_NS

    def postamble_ns(self) -> int:
        return config.NANOSLEEP_POSTAMBLE_NS

    def expiry_for(self, now: int, duration_ns: int) -> int:
        """Range timer: [duration, duration + slack]; fires at the hard
        expiry unless an unrelated timer lets it coalesce earlier."""
        slack = self.timer_slack_ns
        if slack and self._rng.random() < self.coalesce_prob:
            slack = int(slack * self._rng.random())
        return now + duration_ns + slack


class HrSleep(SleepService):
    """The paper's precise sleep service (loadable-module hr_sleep())."""

    name = "hr_sleep"

    def preamble_ns(self) -> int:
        return config.HRSLEEP_PREAMBLE_NS

    def postamble_ns(self) -> int:
        return config.HRSLEEP_POSTAMBLE_NS

    def expiry_for(self, now: int, duration_ns: int) -> int:
        return now + duration_ns
