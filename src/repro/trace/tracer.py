"""The event tracer: typed, nanosecond-stamped simulation events.

Every event is a :class:`TraceEvent` carrying the simulated timestamp,
a dotted event name (``thread.wake``, ``timer.fire``, ``drain.begin``,
...), a phase (instant / span-begin / span-end), and the core/thread it
belongs to.  Emission is append-only into a Python list — no I/O, no
RNG, no simulator callbacks — so enabling tracing never perturbs a run.

The :class:`NullTracer` has the same surface with every emitter compiled
to a no-op and ``enabled = False``; instrumentation points check the
flag first, so a disabled tracer costs one attribute load per site.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class TraceEvent:
    """One recorded occurrence.

    Attributes:
        ts: simulated time in integer nanoseconds.
        name: dotted event name (see the taxonomy in docs/TRACING.md).
        phase: ``"i"`` instant, ``"B"`` span begin, ``"E"`` span end.
        core: core index the event belongs to (None for queue-scoped).
        tid: thread id (None for core- or queue-scoped events).
        thread: thread name at emission time (None when not thread-scoped).
        args: free-form payload (packet counts, expiry times, outcomes).
    """

    __slots__ = ("ts", "name", "phase", "core", "tid", "thread", "args")

    def __init__(
        self,
        ts: int,
        name: str,
        phase: str = "i",
        core: Optional[int] = None,
        tid: Optional[int] = None,
        thread: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ):
        self.ts = ts
        self.name = name
        self.phase = phase
        self.core = core
        self.tid = tid
        self.thread = thread
        self.args = args or {}

    def __repr__(self) -> str:
        who = self.thread or (f"core{self.core}" if self.core is not None else "-")
        return f"<TraceEvent {self.ts}ns {self.name} [{who}] {self.args}>"


class Tracer:
    """Collects :class:`TraceEvent` records against a simulator clock."""

    enabled = True

    def __init__(self, sim: "Simulator"):  # noqa: F821 - duck-typed: needs .now
        self.sim = sim
        self.events: List[TraceEvent] = []

    # ------------------------------------------------------------------ #
    # generic emission
    # ------------------------------------------------------------------ #

    def emit(
        self,
        name: str,
        phase: str = "i",
        core: Optional[int] = None,
        tid: Optional[int] = None,
        thread: Optional[str] = None,
        **args: Any,
    ) -> None:
        self.events.append(
            TraceEvent(self.sim.now, name, phase, core, tid, thread, args)
        )

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()

    def named(self, name: str) -> List[TraceEvent]:
        """All events with the given dotted name, in emission order."""
        return [e for e in self.events if e.name == name]

    # ------------------------------------------------------------------ #
    # typed emitters — scheduler
    # ------------------------------------------------------------------ #

    def thread_wake(self, thread) -> None:
        """A SLEEPING thread became RUNNABLE (timer/IRQ/notification)."""
        self.emit("thread.wake", core=thread.core.index,
                  tid=thread.tid, thread=thread.name)

    def thread_sleep(self, thread) -> None:
        """The thread suspended (left the CPU awaiting a wake)."""
        self.emit("thread.sleep", core=thread.core.index,
                  tid=thread.tid, thread=thread.name)

    def thread_preempt(self, thread) -> None:
        """The running thread was preempted (tick or wakeup preemption)."""
        self.emit("thread.preempt", core=thread.core.index,
                  tid=thread.tid, thread=thread.name)

    def thread_dispatch(self, thread, wait_ns: int) -> None:
        """The thread went RUNNABLE→RUNNING after ``wait_ns`` on the rq."""
        self.emit("thread.dispatch", core=thread.core.index,
                  tid=thread.tid, thread=thread.name, wait_ns=wait_ns)

    def thread_exit(self, thread) -> None:
        self.emit("thread.exit", core=thread.core.index,
                  tid=thread.tid, thread=thread.name)

    # ------------------------------------------------------------------ #
    # typed emitters — hrtimers
    # ------------------------------------------------------------------ #

    def timer_arm(self, core_index: int, expiry: int) -> None:
        self.emit("timer.arm", core=core_index, expiry=expiry)

    def timer_fire(self, core_index: int, expiry: int, idle: bool) -> None:
        """The hardware interrupt landed; lateness = now − programmed
        expiry (IRQ pipeline latency, plus C-state exit when idle)."""
        self.emit("timer.fire", core=core_index, expiry=expiry,
                  lateness_ns=self.sim.now - expiry, idle=idle)

    def timer_cancel(self, core_index: int, expiry: int) -> None:
        """A timer was disarmed before firing (never emitted for a timer
        whose callback already ran — see Handle.fired)."""
        self.emit("timer.cancel", core=core_index, expiry=expiry)

    # ------------------------------------------------------------------ #
    # typed emitters — sleep services (Figure 1 stages)
    # ------------------------------------------------------------------ #

    def sleep_enter(self, thread, requested_ns: int, service: str) -> None:
        self.emit("sleep.enter", phase="B", core=thread.core.index,
                  tid=thread.tid, thread=thread.name,
                  requested_ns=requested_ns, service=service)

    def sleep_armed(self, thread, expiry: int) -> None:
        """Preamble done; the hrtimer is programmed for ``expiry``."""
        self.emit("sleep.armed", core=thread.core.index,
                  tid=thread.tid, thread=thread.name, expiry=expiry)

    def sleep_return(self, thread, immediate: bool = False) -> None:
        """Back in user space (postamble + syscall exit done)."""
        self.emit("sleep.return", phase="E", core=thread.core.index,
                  tid=thread.tid, thread=thread.name, immediate=immediate)

    # ------------------------------------------------------------------ #
    # typed emitters — trylock / drain / TX
    # ------------------------------------------------------------------ #

    def trylock(self, thread, lock_name: str, acquired: bool) -> None:
        """One trylock attempt: acquired, or contended (a busy try)."""
        self.emit("trylock.acquire" if acquired else "trylock.contended",
                  core=thread.core.index, tid=thread.tid,
                  thread=thread.name, lock=lock_name)

    def drain_begin(self, thread, queue_index: int, backlog: int) -> None:
        self.emit("drain.begin", phase="B", core=thread.core.index,
                  tid=thread.tid, thread=thread.name,
                  queue=queue_index, backlog=backlog)

    def drain_end(self, thread, queue_index: int, packets: int) -> None:
        self.emit("drain.end", phase="E", core=thread.core.index,
                  tid=thread.tid, thread=thread.name,
                  queue=queue_index, packets=packets)

    def tx_flush(self, queue_index: int, packets: int) -> None:
        self.emit("tx.flush", queue=queue_index, packets=packets)

    # ------------------------------------------------------------------ #
    # typed emitters — fault injection / graceful degradation
    # ------------------------------------------------------------------ #

    def fault_begin(self, kind: str, core: Optional[int] = None,
                    **args: Any) -> None:
        """A fault episode opened (``fault.<kind>`` span begin)."""
        self.emit(f"fault.{kind}", phase="B", core=core, **args)

    def fault_end(self, kind: str, core: Optional[int] = None,
                  **args: Any) -> None:
        """The fault episode closed."""
        self.emit(f"fault.{kind}", phase="E", core=core, **args)

    def fault_event(self, kind: str, core: Optional[int] = None,
                    **args: Any) -> None:
        """One discrete injected fault (a dropped wakeup, a stretched
        timer fire, one SMI stall)."""
        self.emit(f"fault.{kind}.hit", core=core, **args)

    def watchdog_escalate(self, queue_index: int, age_ns: int,
                          occupancy: int, woken: int) -> None:
        """The starvation watchdog tripped on a queue and early-woke
        ``woken`` sleeping threads."""
        self.emit("watchdog.escalate", queue=queue_index, age_ns=age_ns,
                  occupancy=occupancy, woken=woken)

    def watchdog_clear(self, engaged_ns: int) -> None:
        """All queues back under their bounds; escalation lifted."""
        self.emit("watchdog.clear", engaged_ns=engaged_ns)


def _noop(self, *args: Any, **kwargs: Any) -> None:
    return None


class NullTracer:
    """Disabled tracer: same surface as :class:`Tracer`, every emitter a
    no-op.  Shared process-wide as :data:`NULL_TRACER`."""

    enabled = False
    events: List[TraceEvent] = []

    def __len__(self) -> int:
        return 0

    def named(self, name: str) -> List[TraceEvent]:
        return []


for _name, _member in list(vars(Tracer).items()):
    if callable(_member) and not _name.startswith("_") and _name != "named":
        setattr(NullTracer, _name, _noop)
del _name, _member

NULL_TRACER = NullTracer()
