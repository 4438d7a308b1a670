"""Kernel threads and the action protocol their bodies speak.

A thread body is a Python generator.  It yields *actions* describing what
the thread does next on the CPU; the scheduler decides **when** those
actions actually execute (the thread may be preempted, delayed behind
other runnable threads, or slowed by a frequency drop).  The available
actions are:

``Compute(work_ns)``
    Execute ``work_ns`` nanoseconds of work *as measured at the base
    frequency*.  Wall-clock duration stretches if the governor lowered
    the clock, and the chunk can be preempted at any point.

``BusySpin(until)``
    Burn CPU until absolute simulated time ``until`` (used by the
    poll-mode driver's empty-poll fast-forward — the core is genuinely
    100% busy, we just do not simulate each idle poll individually).

``Suspend()``
    Leave the CPU until someone calls :meth:`KThread.wake` (a timer
    callback, an IRQ, another thread).

``YieldCpu()``
    Stay runnable but let the scheduler pick again (sched_yield()).

``Exit()``
    Terminate.  Equivalent to the generator returning.

The scheduler picks an action's branch by its exact class
(``type(action) is Compute``), not ``isinstance``: the action classes
are final, and an instance of a subclass is rejected as an unknown
action.

Side effects (reading a queue, taking a lock) happen in the body *between*
yields, i.e. at the simulated instant when the preceding chunk of work
completed — which is exactly when a real CPU would perform them.
"""

from __future__ import annotations

import enum
from typing import Any, Generator

from repro.kernel.nice import weight_for_nice


class ThreadState(enum.Enum):
    """Lifecycle of a :class:`KThread` (subset of Linux task states)."""

    NEW = "new"
    RUNNABLE = "runnable"
    RUNNING = "running"
    SLEEPING = "sleeping"     # suspended, expects a wake()
    DEAD = "dead"


class Compute:
    """Action: execute ``work_ns`` ns of work (at base frequency)."""

    __slots__ = ("work_ns",)

    def __init__(self, work_ns: int):
        if work_ns < 0:
            raise ValueError(f"negative work {work_ns}")
        self.work_ns = work_ns

    def __repr__(self) -> str:
        return f"Compute({self.work_ns}ns)"


class BusySpin:
    """Action: burn CPU until absolute time ``until`` (wall-clock bound)."""

    __slots__ = ("until",)

    def __init__(self, until: int):
        self.until = until

    def __repr__(self) -> str:
        return f"BusySpin(until={self.until})"


class Suspend:
    """Action: deschedule until :meth:`KThread.wake` is called."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Suspend()"


class YieldCpu:
    """Action: relinquish the CPU but remain runnable."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "YieldCpu()"


class Exit:
    """Action: terminate the thread."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Exit()"


class KThread:
    """A schedulable thread pinned to one core.

    Attributes of interest to experiments:

    * :attr:`cputime_ns` — total CPU time consumed (getrusage-style).
    * :attr:`vruntime` — CFS virtual runtime (weighted CPU time).
    * :attr:`wakeups` / :attr:`preemptions` — scheduler event counts.
    """

    _next_tid = [1]

    def __init__(
        self,
        machine: "Machine",  # noqa: F821 - circular, resolved at runtime
        body: Generator,
        name: str,
        nice: int = 0,
        core_index: int = 0,
    ):
        self.machine = machine
        self.body = body
        self.name = name
        self.nice = nice
        self.weight = weight_for_nice(nice)
        self.core = machine.cores[core_index]
        self.tid = KThread._next_tid[0]
        KThread._next_tid[0] += 1

        self.state = ThreadState.NEW
        self.vruntime: int = 0
        self.cputime_ns: int = 0
        #: remaining base-frequency work of the current Compute chunk
        self.remaining_work: int = 0
        #: current action (None between actions)
        self.action: Any = None
        #: one-time cold-cache penalty still to pay (base-frequency ns)
        self.cold_penalty: int = 0
        #: time the thread last started running (for slice accounting)
        self.run_since: int = 0
        #: time the thread became runnable (for dispatch-latency stats)
        self.runnable_since: int = 0
        #: set when a wake() arrives while the thread is not sleeping, so
        #: the next Suspend returns immediately (lost-wakeup protection)
        self.pending_wake: bool = False

        # statistics
        self.wakeups = 0
        self.preemptions = 0
        self.dispatch_latency_ns = 0  # cumulative runnable->running wait
        self.exited = machine.sim.event()
        self.exit_value: Any = None

    def __repr__(self) -> str:
        return f"<KThread {self.name} tid={self.tid} {self.state.value}>"

    # ------------------------------------------------------------------ #

    def wake(self) -> None:
        """Make a SLEEPING thread runnable (no-op in any other state).

        This is the single entry point used by timer callbacks, IRQ
        handlers and inter-thread notifications.
        """
        self.machine.scheduler.wake(self)

    def is_alive(self) -> bool:
        return self.state is not ThreadState.DEAD
