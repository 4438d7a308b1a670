"""A CFS-like per-core scheduler.

Implements the subset of the Linux Completely Fair Scheduler that the
paper's experiments exercise:

* per-core runqueues ordered by **virtual runtime** (weighted CPU time,
  scaled by the thread's nice weight);
* **scheduling ticks** (1 ms) that preempt a thread once it exceeds its
  fair slice;
* **wakeup preemption**: a woken thread whose vruntime trails the running
  thread's by more than the wakeup granularity preempts it immediately —
  this is what lets a nice −20 Metronome thread displace a nice 19
  ferret the instant its sleep timer fires (§5.6);
* **sleeper fairness**: a woken thread's vruntime is clamped to
  ``min_vruntime − sched_latency/2`` so long sleeps don't bank unbounded
  credit;
* **context-switch and cold-cache costs**, and C-state exit latency when
  waking an idle core (the cpuidle model) — these are the physical
  sources of the sleep services' wakeup imprecision (§3.1).

Threads are pinned to their core (the paper pins all DPDK threads);
there is no load balancer.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, List, Optional

from repro import config
from repro.kernel.cpu import Core, default_cold_penalty
from repro.kernel.nice import NICE_0_WEIGHT
from repro.kernel.thread import (
    BusySpin,
    Compute,
    Exit,
    KThread,
    Suspend,
    ThreadState,
    YieldCpu,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.machine import Machine


class _CoreSched:
    """Per-core scheduler state (runqueue + running-thread bookkeeping)."""

    __slots__ = (
        "core",
        "runqueue",
        "seq",
        "min_vruntime",
        "completion",
        "tick",
        "pending_begin",
        "acct_mark",
        "irq_skip",
        "switching",
        "irq_busy_until",
    )

    def __init__(self, core: Core):
        self.core = core
        self.runqueue: List[tuple] = []  # (vruntime, seq, thread) heap
        self.seq = 0
        self.min_vruntime = 0
        self.completion = None            # Handle for chunk completion
        self.tick = None                  # Handle for scheduler tick
        self.pending_begin = None         # Handle for delayed _begin_run
        self.acct_mark = 0                # last accounting timestamp
        self.irq_skip = 0                 # IRQ time to exclude from acct
        self.switching: Optional[KThread] = None  # thread mid-dispatch
        #: end of the current idle-context IRQ window (handlers running
        #: with no thread on the CPU); dispatches serialize behind it
        self.irq_busy_until = 0


class CfsScheduler:
    """The machine-wide scheduler object (one per :class:`Machine`)."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.sim = machine.sim
        self._cs: List[_CoreSched] = [_CoreSched(c) for c in machine.cores]
        self._switch_rng = machine.streams.stream("sched.switch")
        #: False during a synchronous dispatch whose caller carries on
        #: at its instant: chunks then complete through the calendar
        #: (see _dispatch and _advance)
        self._inline = True

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def start_thread(self, thread: KThread) -> None:
        """Admit a NEW thread: it becomes runnable at the current time."""
        if thread.state is not ThreadState.NEW:
            raise RuntimeError(f"{thread} already started")
        cs = self._cs[thread.core.index]
        thread.vruntime = cs.min_vruntime
        thread.state = ThreadState.RUNNABLE
        thread.runnable_since = self.sim.now
        self._enqueue(cs, thread)
        # defer the first dispatch so spawn() returns before the body runs
        self.sim.call_after(0, self._maybe_dispatch, cs)

    def wake(self, thread: KThread, tail: bool = False) -> None:
        """Wake a SLEEPING thread (timer fired, IRQ, notification).

        Waking a thread that is already RUNNABLE/RUNNING records a pending
        wake so a subsequent ``Suspend`` returns immediately (lost-wakeup
        protection for IRQ-driven threads).

        ``tail`` declares the wake the caller's last act at this instant
        (the hr_sleep timer expiry, the XDP IRQ): nothing on the stack
        acts at the wake instant once it returns, so a dispatch it
        triggers may complete the woken thread's chunks inline.  Any
        other waker (a thread body, a loop waking several threads)
        carries on at the wake instant and must leave ``tail`` off.
        """
        if thread.state in (ThreadState.RUNNING, ThreadState.RUNNABLE):
            thread.pending_wake = True
            return
        if thread.state is not ThreadState.SLEEPING:
            return  # dead or new: nothing to do
        cs = self._cs[thread.core.index]
        thread.state = ThreadState.RUNNABLE
        thread.wakeups += 1
        thread.runnable_since = self.sim.now
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.thread_wake(thread)
        # sleeper fairness: don't let long sleepers bank unbounded credit
        floor = cs.min_vruntime - config.SCHED_LATENCY_NS // 2
        if thread.vruntime < floor:
            thread.vruntime = floor
        self._enqueue(cs, thread)
        if cs.core.current is None and cs.switching is None:
            self._dispatch(cs, tail)
        else:
            self._check_preempt_wakeup(cs, thread)

    def on_irq_injected(self, core: Core, duration_ns: int) -> None:
        """Splice interrupt-handler time into the core's timeline."""
        cs = self._cs[core.index]
        if core.current is not None and cs.completion is not None:
            # stretch the running chunk; the window is excluded from the
            # thread's own accounting via irq_skip.  Re-programming uses
            # the *total* outstanding skip so back-to-back injections
            # (e.g. two wheel timers on one jiffy) don't lose time.
            self._account(cs)
            cs.irq_skip += duration_ns
            self._program_completion(cs)
        elif cs.switching is not None and cs.pending_begin is not None:
            # mid-context-switch: the IRQ delays the dispatch completion
            begin_at = cs.pending_begin.time + duration_ns
            cs.pending_begin.cancel()
            cs.pending_begin = self.sim.call_at(
                begin_at, self._begin_run, cs, cs.switching
            )
        elif core.current is None and cs.switching is None:
            # no thread context: IRQ handlers queue back-to-back (a
            # second handler arriving mid-window runs after the first)
            self.occupy_idle_irq(core, duration_ns)

    def account_core(self, core: Core) -> None:
        """Charge the running thread's progress up to now (at the speed
        still in effect).  Public for speed changes: a governor
        frequency step and an SMT sibling's busy flip."""
        cs = self._cs[core.index]
        if core.current is not None and cs.completion is not None:
            self._account(cs)

    def reprogram_core(self, core: Core) -> None:
        """Recompute the running chunk's completion at the current speed."""
        cs = self._cs[core.index]
        if core.current is not None and cs.completion is not None:
            self._program_completion(cs)

    def runnable_count(self, core: Core) -> int:
        """Runqueue length (excluding the running thread)."""
        return len(self._cs[core.index].runqueue)

    def occupy_idle_irq(self, core: Core, duration_ns: int) -> int:
        """Reserve an idle-context IRQ window on ``core``.

        Returns the absolute end time of the window (queued behind any
        handler already in flight).  The caller is responsible for the
        irq/stall sub-accounting; this method owns the busy-span and
        serialization bookkeeping.
        """
        cs = self._cs[core.index]
        start = max(self.sim.now, cs.irq_busy_until)
        cs.irq_busy_until = start + duration_ns
        core.mark_busy()
        self.sim.call_at(cs.irq_busy_until, self._irq_idle_done, cs)
        return cs.irq_busy_until

    def inflight_irq_ns(self, core: Core) -> int:
        """IRQ handler time already charged to ``core.irq_ns`` whose busy
        window has not elapsed yet (pending stretch or an idle-context
        window running past the current instant).  Accounting audits
        subtract this when sampling mid-flight."""
        cs = self._cs[core.index]
        pending = cs.irq_skip
        if cs.irq_busy_until > self.sim.now:
            pending += cs.irq_busy_until - self.sim.now
        return pending

    def unsettled_ns(self, core: Core) -> int:
        """Busy time on ``core`` not yet matched by its charges.

        Positive: the running thread's interval since its last
        accounting point (run, not yet charged).  Negative: what is left
        of a dispatch in flight, whose C-state exit stall, context switch
        and spliced-in handler time were charged when it started (IRQ
        windows are :meth:`inflight_irq_ns`'s).  Together they close the
        identity the ``cpu`` monitor checks: ``total_busy_ns == Σ cputime
        + irq + switch + exit_stall − inflight_irq_ns + unsettled_ns``.
        """
        cs = self._cs[core.index]
        now = self.sim.now
        if core.current is not None:
            return now - cs.acct_mark
        if cs.pending_begin is not None:
            return min(0, max(now, cs.irq_busy_until) - cs.pending_begin.time)
        return 0

    def settle_idle(self, core: Core) -> None:
        """Return the core to idle if nothing is running or queued.

        Called after IRQ handlers whose callback turned out not to make
        anything runnable on this core.  A handler window still in
        flight keeps the core busy; it settles idle when it ends.  A
        core already marked idle at this instant (the woken thread ran
        inline and went back to sleep) is settled already.
        """
        if core.idle_since == self.sim.now:
            return
        cs = self._cs[core.index]
        if (core.current is None and cs.switching is None
                and not cs.runqueue and cs.irq_busy_until <= self.sim.now):
            core.mark_idle()

    # ------------------------------------------------------------------ #
    # runqueue mechanics
    # ------------------------------------------------------------------ #

    def _enqueue(self, cs: _CoreSched, thread: KThread) -> None:
        cs.seq += 1
        heapq.heappush(cs.runqueue, (thread.vruntime, cs.seq, thread))

    def _pop_next(self, cs: _CoreSched) -> Optional[KThread]:
        rq = cs.runqueue
        return heapq.heappop(rq)[2] if rq else None

    def _peek_vruntime(self, cs: _CoreSched) -> Optional[int]:
        rq = cs.runqueue
        return rq[0][0] if rq else None

    # ------------------------------------------------------------------ #
    # dispatch path
    # ------------------------------------------------------------------ #

    def _maybe_dispatch(self, cs: _CoreSched) -> None:
        if cs.core.current is None and cs.switching is None:
            self._dispatch(cs)
        elif cs.core.current is not None:
            self._check_preempt_wakeup(cs, cs.core.current)

    def _flush_residual_skip(self, cs: _CoreSched) -> None:
        """Convert un-elapsed stolen IRQ time into a serialized
        idle-context window.

        A thread leaving the CPU (preempt/suspend/exit) while an
        injected handler stretch is still pending must not take that
        time with it: the handler keeps the core busy and delays the
        next dispatch instead.
        """
        if cs.irq_skip > 0:
            start = max(self.sim.now, cs.irq_busy_until)
            cs.irq_busy_until = start + cs.irq_skip
            cs.irq_skip = 0
            self.sim.call_at(cs.irq_busy_until, self._irq_idle_done, cs)

    def _dispatch(self, cs: _CoreSched, tail: bool = False) -> None:
        """Pick the next thread and begin running it (possibly after a
        context-switch / C-state-exit delay).  ``tail``: see :meth:`wake`."""
        thread = self._pop_next(cs)
        core = cs.core
        if thread is None:
            if cs.irq_busy_until > self.sim.now:
                return  # an IRQ window is still running; it settles idle
            core.mark_idle()
            return
        checks = self.machine.checks
        if checks is not None:
            # fairness is checked at pop time: by _begin_run a
            # context-switch delay may have let smaller-vruntime
            # threads enqueue, which would false-positive pick-is-min
            checks.on_pick(thread, cs)

        delay = 0
        was_idle = not core.is_busy
        if was_idle:
            stall = self.machine.cpuidle.exit_latency(core)
            core.exit_stall_ns += stall
            delay += stall
        elif cs.irq_busy_until > self.sim.now:
            # wait out the in-flight IRQ handler(s) before switching in
            delay += cs.irq_busy_until - self.sim.now
        if core.last_thread is not thread and core.last_thread is not None:
            delay += config.CONTEXT_SWITCH_NS
            core.switch_ns += config.CONTEXT_SWITCH_NS
            thread.cold_penalty = 1  # marker: pay cold penalty on next chunk
        core.mark_busy()
        cs.switching = thread
        if delay:
            cs.pending_begin = self.sim.call_after(delay, self._begin_run, cs, thread)
        elif tail:
            # the waker's callback ends here: the thread may run ahead
            self._begin_run(cs, thread)
        else:
            # a synchronous dispatch runs inside a caller that resumes
            # once it returns (wake()'s caller, a yielding thread's
            # _advance): the dispatched thread must not run ahead of it
            # on the inline path, nor nest one _advance per chunk
            inline, self._inline = self._inline, False
            self._begin_run(cs, thread)
            self._inline = inline

    def _begin_run(self, cs: _CoreSched, thread: KThread) -> None:
        cs.pending_begin = None
        cs.switching = None
        core = cs.core
        if thread.state is not ThreadState.RUNNABLE:
            # should not happen: the thread left the runqueue for us
            raise RuntimeError(f"{thread} dispatched in state {thread.state}")
        now = self.sim.now
        thread.state = ThreadState.RUNNING
        thread.dispatch_latency_ns += now - thread.runnable_since
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.thread_dispatch(thread, now - thread.runnable_since)
        thread.run_since = now
        core.current = thread
        core.last_thread = thread
        cs.acct_mark = now
        cs.irq_skip = 0
        if thread.action is None:
            # fresh thread or returning from Suspend/Yield: fetch next action
            self._advance(cs, thread)
        else:
            self._resume_action(cs, thread)

    def _resume_action(self, cs: _CoreSched, thread: KThread) -> None:
        """Continue a partially executed action after preemption."""
        action = thread.action
        kind = type(action)
        if kind is Compute:
            if thread.cold_penalty == 1:
                thread.remaining_work += default_cold_penalty(thread.remaining_work)
                thread.cold_penalty = 0
            self._program_completion(cs)
        elif kind is BusySpin:
            thread.cold_penalty = 0
            if action.until <= self.sim.now:
                self._advance(cs, thread)
            else:
                self._program_completion(cs)
        else:  # pragma: no cover - only compute-like actions are resumable
            raise RuntimeError(f"cannot resume action {action!r}")

    def _program_completion(self, cs: _CoreSched) -> None:
        """(Re)schedule the running chunk's completion.

        Caller contract: accounting is current (``acct_mark == now``).
        Outstanding stolen IRQ time (``irq_skip``) extends a Compute
        chunk; a BusySpin is wall-clock-bound and absorbs it instead.
        """
        if cs.completion is not None:
            cs.completion.cancel()
        thread = cs.core.current
        action = thread.action
        if type(action) is BusySpin:
            wall = max(0, action.until - self.sim.now)
        else:
            wall = cs.core.work_to_wall(thread.remaining_work) + cs.irq_skip
        cs.completion = self.sim.call_after(wall, self._on_complete, cs)
        self._ensure_tick(cs)

    def _on_complete(self, cs: _CoreSched) -> None:
        cs.completion = None
        thread = cs.core.current
        self._account(cs)
        thread.remaining_work = 0
        self._advance(cs, thread)

    # ------------------------------------------------------------------ #
    # generator advance
    # ------------------------------------------------------------------ #

    def _advance(self, cs: _CoreSched, thread: KThread) -> None:
        """Pull actions from the thread body until one occupies the CPU.

        Inline completion: a Compute or future BusySpin chunk whose end
        would be the next event to fire anyway completes in place.  That
        needs no other runnable thread on the core (no tick or wakeup
        preemption can cut the chunk), no stolen IRQ time still to
        splice in, and :meth:`Simulator.advance_to` confirming that no
        event is due at or before the chunk's end.  The clock then moves
        there, the thread is charged in place exactly as
        :meth:`_on_complete` would charge it, and the next action is
        pulled in the same loop: no calendar entry, no callback.  Any
        other chunk goes through :meth:`_program_completion`, the
        general (reference) path.
        """
        core = cs.core
        sim = self.sim
        send = thread.body.send
        while True:
            try:
                action = send(None)
            except StopIteration as stop:
                self._exit_thread(cs, thread, stop.value)
                return
            thread.action = action

            kind = type(action)
            if kind is Compute:
                work = action.work_ns
                if work == 0:
                    continue
                if thread.cold_penalty == 1:
                    work += default_cold_penalty(work)
                    thread.cold_penalty = 0
                thread.remaining_work = work
                end = sim.now + (work if core.work_is_wall
                                 else core.work_to_wall(work))
            elif kind is BusySpin:
                thread.cold_penalty = 0
                end = action.until
                if end <= sim.now:
                    continue
            elif kind is Suspend:
                if thread.pending_wake:
                    thread.pending_wake = False
                    continue  # wakeup raced ahead: don't sleep
                self._deschedule(cs, thread, ThreadState.SLEEPING)
                return
            elif kind is YieldCpu:
                thread.state = ThreadState.RUNNABLE
                thread.runnable_since = sim.now
                thread.action = None
                self._leave_cpu(cs, thread)
                self._enqueue(cs, thread)
                self._dispatch(cs)
                return
            elif kind is Exit:
                self._exit_thread(cs, thread, None)
                return
            else:
                raise RuntimeError(f"{thread} yielded unknown action {action!r}")
            if (cs.runqueue or cs.irq_skip or not self._inline
                    or not sim.advance_to(end)):
                break
            # _account with no stolen time to skip and an empty runqueue:
            # charge the whole chunk, and the chunk is done
            dt = end - cs.acct_mark
            cs.acct_mark = end
            thread.cputime_ns += dt
            vruntime = thread.vruntime + dt * NICE_0_WEIGHT // thread.weight
            thread.vruntime = vruntime
            thread.remaining_work = 0
            if vruntime > cs.min_vruntime:
                cs.min_vruntime = vruntime
        self._program_completion(cs)

    def _deschedule(self, cs: _CoreSched, thread: KThread, state: ThreadState) -> None:
        tracer = self.machine.tracer
        if tracer.enabled and state is ThreadState.SLEEPING:
            tracer.thread_sleep(thread)
        thread.state = state
        thread.action = None
        self._leave_cpu(cs, thread)
        self._dispatch(cs)

    def _exit_thread(self, cs: _CoreSched, thread: KThread, value) -> None:
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.thread_exit(thread)
        thread.state = ThreadState.DEAD
        thread.action = None
        thread.exit_value = value
        self._leave_cpu(cs, thread)
        thread.exited.succeed(value)
        self._dispatch(cs)

    def _leave_cpu(self, cs: _CoreSched, thread: KThread) -> None:
        """Take the running ``thread`` off its core (sleep, preempt, yield,
        exit).  Accounting is current here, so this is where the ``cpu``
        monitor audits the core; pending stolen IRQ time stays on the
        core as an idle-context window."""
        checks = self.machine.checks
        if checks is not None:
            checks.on_cpu_leave(thread)
        cs.core.current = None
        if cs.completion is not None:
            cs.completion.cancel()
            cs.completion = None
        self._flush_residual_skip(cs)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def _account(self, cs: _CoreSched) -> None:
        """Charge the running thread for CPU time since the last mark.

        ``irq_skip`` holds stolen interrupt time that must not be billed
        to the thread; when the whole elapsed interval (or more) was
        stolen — an accounting point landing *inside* an IRQ stretch —
        the residual skip carries forward instead of being clobbered.
        """
        thread = cs.core.current
        now = self.sim.now
        raw = now - cs.acct_mark
        dt = raw - cs.irq_skip
        cs.acct_mark = now
        if dt <= 0:
            cs.irq_skip -= raw
            return
        cs.irq_skip = 0
        if thread is None:
            return
        thread.cputime_ns += dt
        thread.vruntime += dt * NICE_0_WEIGHT // thread.weight
        if type(thread.action) is Compute:
            done = cs.core.wall_to_work(dt)
            thread.remaining_work = max(0, thread.remaining_work - done)
        self._update_min_vruntime(cs)

    def _update_min_vruntime(self, cs: _CoreSched) -> None:
        """Raise ``min_vruntime`` to min(running, runqueue head), never
        lowering it (allocation-free: this runs on every accounting)."""
        current = cs.core.current
        head = self._peek_vruntime(cs)
        if current is not None:
            v = current.vruntime
            if head is not None and head < v:
                v = head
        elif head is not None:
            v = head
        else:
            return
        if v > cs.min_vruntime:
            cs.min_vruntime = v

    # ------------------------------------------------------------------ #
    # preemption
    # ------------------------------------------------------------------ #

    def _check_preempt_wakeup(self, cs: _CoreSched, woken: KThread) -> None:
        current = cs.core.current
        if current is None:
            return
        if cs.completion is None:
            # the running thread's own body did the wake: preempting now
            # would cut the body mid-step.  Like Linux's need_resched,
            # check again once it has reached its next action.
            self.sim.call_after(0, self._recheck_preempt, cs, woken)
            return
        self._account(cs)
        gran_v = config.SCHED_WAKEUP_GRANULARITY_NS * NICE_0_WEIGHT // woken.weight
        if woken.vruntime + gran_v < current.vruntime:
            self._preempt(cs)
        else:
            self._ensure_tick(cs)

    def _recheck_preempt(self, cs: _CoreSched, woken: KThread) -> None:
        if woken.state is ThreadState.RUNNABLE:
            self._check_preempt_wakeup(cs, woken)

    def _preempt(self, cs: _CoreSched) -> None:
        thread = cs.core.current
        self._account(cs)
        thread.preemptions += 1
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.thread_preempt(thread)
        thread.state = ThreadState.RUNNABLE
        thread.runnable_since = self.sim.now
        self._leave_cpu(cs, thread)
        self._enqueue(cs, thread)
        self._dispatch(cs)

    # ------------------------------------------------------------------ #
    # scheduling tick
    # ------------------------------------------------------------------ #

    def _ensure_tick(self, cs: _CoreSched) -> None:
        if cs.tick is None and cs.runqueue and cs.core.current is not None:
            cs.tick = self.sim.call_after(config.SCHED_TICK_NS, self._on_tick, cs)

    def _on_tick(self, cs: _CoreSched) -> None:
        cs.tick = None
        current = cs.core.current
        if current is None or not cs.runqueue:
            return
        self._account(cs)
        ran = self.sim.now - current.run_since
        if ran >= self._slice_for(cs, current):
            self._preempt(cs)
        else:
            self._ensure_tick(cs)

    def _slice_for(self, cs: _CoreSched, thread: KThread) -> int:
        total_weight = thread.weight
        for _v, _s, t in cs.runqueue:
            total_weight += t.weight
        share = config.SCHED_LATENCY_NS * thread.weight // total_weight
        return max(share, config.SCHED_MIN_GRANULARITY_NS)

    # ------------------------------------------------------------------ #

    def _irq_idle_done(self, cs: _CoreSched) -> None:
        if self.sim.now < cs.irq_busy_until:
            return  # superseded by a later-queued handler
        if (cs.core.current is None and cs.switching is None
                and not cs.runqueue):
            cs.core.mark_idle()
