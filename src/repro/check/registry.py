"""Runtime invariant monitors: the CheckRegistry and its hook points.

The registry is a passive observer wired into the subsystems' hot
paths behind ``is None`` guards, following the :mod:`repro.trace` /
:mod:`repro.faults` zero-perturbation idiom: it schedules no simulator
events and draws no randomness, so enabling it never changes a run's
results — and with no registry installed the hooks cost one attribute
read per site.

Monitor catalogue (one hook family each; see docs/CHECK.md):

``clock``
    The virtual clock is monotonic: no event executes at a timestamp
    behind the clock (:meth:`CheckRegistry.on_execute`, called by the
    :class:`~repro.sim.core.Simulator` run loop).
``timer``
    An hrtimer never fires before its programmed expiry
    (:meth:`on_timer_fire`, called by the per-core hrtimer base).
``sleep``
    A sleep whose own timer fired never returns before its expiry
    (:meth:`on_sleep_wake`).  Externally woken sleeps — the watchdog's
    early wakes, fault-injected wakes — legitimately return early and
    are identified by ``timer_fired=False``.
``sched``
    CFS fairness at dispatch time: the picked thread's vruntime is the
    runqueue minimum, respects the sleeper-fairness floor
    (``min_vruntime − sched_latency/2``), and the vruntime spread
    between same-weight runnable threads stays bounded
    (:meth:`on_pick`).
``lock``
    A shadow ownership map independently witnesses every trylock
    transition: mutual exclusion, release-by-owner, and — at quiesce —
    that no lock is left held by a thread that cannot release it
    (:meth:`on_lock_acquire` / :meth:`on_lock_release` /
    :meth:`on_lock_busy`).
``nic``
    Ring occupancy stays within [0, capacity] on every sync
    (:meth:`on_ring`) and, at quiesce, packet conservation holds on
    every registered queue: arrived == popped + dropped + in-flight
    (:meth:`quiesce`).
``cpu``
    CPU time is conserved per core, exactly: the busy span equals the
    threads' cputime + IRQ + context-switch + C-state-stall charges,
    less charges not yet elapsed, plus time run but not yet charged.
    A thread's vruntime never decreases.  Checked whenever a thread
    leaves its CPU (:meth:`on_cpu_leave`) and at :meth:`quiesce`.

Violations carry trace-style attribution (simulated time, subject,
monitor, invariant) and are capped; past the cap only counters grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import config
from repro.kernel.nice import NICE_0_WEIGHT
from repro.kernel.thread import ThreadState

#: every monitor the registry knows, in report order
MONITORS = ("clock", "timer", "sleep", "sched", "lock", "nic", "cpu")


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with trace-style attribution."""

    monitor: str       # which monitor caught it (see MONITORS)
    invariant: str     # short invariant name, e.g. "mutual-exclusion"
    t_ns: int          # simulated time of the observation
    subject: str       # thread / lock / queue / core the breach is about
    message: str       # human-readable detail

    def format(self) -> str:
        return (f"[{self.t_ns} ns] {self.monitor}/{self.invariant} "
                f"{self.subject}: {self.message}")


class CheckRegistry:
    """Collects invariant observations for one :class:`Machine`.

    Install via :meth:`Machine.enable_checks` *before* building the
    workload, so construction-time hooks (trylocks, Rx queues) bind to
    the live registry.  ``monitors`` selects a subset of
    :data:`MONITORS` (default: all).
    """

    def __init__(
        self,
        machine,
        monitors: Optional[Sequence[str]] = None,
        max_violations: int = 1000,
    ):
        names = tuple(monitors) if monitors is not None else MONITORS
        unknown = sorted(set(names) - set(MONITORS))
        if unknown:
            raise ValueError(
                f"unknown monitor(s) {unknown}; known: {list(MONITORS)}"
            )
        self.machine = machine
        self.monitors = frozenset(names)
        self.max_violations = max_violations
        self.violations: List[Violation] = []
        #: violations past the storage cap (counted, not stored)
        self.dropped = 0
        #: checks evaluated per monitor (shows coverage, not health)
        self.checked: Dict[str, int] = {m: 0 for m in MONITORS}
        # per-monitor enable flags, read on the hot paths
        self._clock = "clock" in self.monitors
        self._timer = "timer" in self.monitors
        self._sleep = "sleep" in self.monitors
        self._sched = "sched" in self.monitors
        self._lock = "lock" in self.monitors
        self._nic = "nic" in self.monitors
        self._cpu = "cpu" in self.monitors
        # lock shadow state: id(lock) -> (lock, owner); locks are kept
        # alive by their groups for the machine's lifetime, so ids are
        # stable for the run
        self._held: Dict[int, Tuple[object, object]] = {}
        self._locks: List[object] = []
        self._queues: List[object] = []
        #: cpu monitor: last vruntime seen per thread
        self._vruntime: Dict[object, int] = {}
        #: same-weight runnable vruntime spread bound, in wall ns for a
        #: nice-0 thread: one full stint (slice ≤ sched_latency, caught
        #: by the next tick) plus the sleeper-fairness credit, with
        #: headroom for dispatch/IRQ delays stacking between accountings
        self._spread_wall_ns = 4 * (
            config.SCHED_LATENCY_NS
            + config.SCHED_TICK_NS
            + config.SCHED_LATENCY_NS // 2
        )

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    @property
    def ok(self) -> bool:
        return not self.violations and not self.dropped

    @property
    def total_checked(self) -> int:
        return sum(self.checked.values())

    def violation(self, monitor: str, invariant: str, subject: str,
                  message: str) -> None:
        """Record one breach (capped; the counter keeps growing)."""
        if len(self.violations) >= self.max_violations:
            self.dropped += 1
            return
        self.violations.append(
            Violation(monitor=monitor, invariant=invariant,
                      t_ns=self.machine.sim.now, subject=subject,
                      message=message)
        )

    def report(self, limit: int = 50) -> str:
        """Human-readable summary: per-monitor counts, then breaches."""
        lines = ["invariant monitors:"]
        for m in MONITORS:
            if m not in self.monitors:
                continue
            n_bad = sum(1 for v in self.violations if v.monitor == m)
            state = "ok" if n_bad == 0 else f"{n_bad} VIOLATION(S)"
            lines.append(f"  {m:6s} {self.checked[m]:>12,d} checks  {state}")
        for v in self.violations[:limit]:
            lines.append("  " + v.format())
        hidden = len(self.violations) - limit + self.dropped
        if hidden > 0:
            lines.append(f"  ... and {hidden} more violation(s)")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # clock (Simulator.run / Simulator.step)
    # ------------------------------------------------------------------ #

    def on_execute(self, prev_now: int, when: int) -> None:
        """An event is about to execute at ``when``; clock was ``prev_now``."""
        if not self._clock:
            return
        self.checked["clock"] += 1
        if when < prev_now:
            self.violation(
                "clock", "monotonic", "sim",
                f"event due at {when} executed after the clock "
                f"reached {prev_now}",
            )

    # ------------------------------------------------------------------ #
    # timers (HrTimerQueue._fire)
    # ------------------------------------------------------------------ #

    def on_timer_fire(self, core_index: int, expiry: int, now: int) -> None:
        if not self._timer:
            return
        self.checked["timer"] += 1
        if now < expiry:
            self.violation(
                "timer", "no-early-fire", f"core{core_index}",
                f"hrtimer fired at {now}, {expiry - now} ns before its "
                f"expiry {expiry}",
            )

    # ------------------------------------------------------------------ #
    # sleeps (SleepService.call)
    # ------------------------------------------------------------------ #

    def on_sleep_wake(self, thread, expiry: int, now: int,
                      timer_fired: bool) -> None:
        """The sleeping thread resumed.  Only timer-driven wakes are
        bound by the expiry; external wakes (watchdog, faults) may be
        early by design."""
        if not self._sleep:
            return
        self.checked["sleep"] += 1
        if timer_fired and now < expiry:
            self.violation(
                "sleep", "no-early-return", thread.name,
                f"timer-driven sleep returned at {now}, "
                f"{expiry - now} ns before expiry {expiry}",
            )

    # ------------------------------------------------------------------ #
    # scheduler (CfsScheduler._dispatch, right after the pop)
    # ------------------------------------------------------------------ #

    def on_pick(self, thread, cs) -> None:
        """``thread`` was just popped from ``cs``'s runqueue.

        ``cs`` is duck-typed per-core scheduler state: ``runqueue``
        entries are ``(vruntime, seq, thread)`` and ``min_vruntime`` is
        the core's monotone floor.
        """
        if not self._sched:
            return
        self.checked["sched"] += 1
        v = thread.vruntime
        floor = cs.min_vruntime - config.SCHED_LATENCY_NS // 2
        if v < floor:
            self.violation(
                "sched", "fairness-floor", thread.name,
                f"picked vruntime {v} below the sleeper-fairness floor "
                f"{floor} (min_vruntime {cs.min_vruntime})",
            )
        weight = thread.weight
        spread_v = self._spread_wall_ns * NICE_0_WEIGHT // weight
        for other_v, _seq, other in cs.runqueue:
            if other.weight != weight:
                continue
            if other_v < v:
                self.violation(
                    "sched", "pick-is-min", thread.name,
                    f"picked vruntime {v} but same-weight {other.name} "
                    f"waits at {other_v}",
                )
            elif other_v - v > spread_v:
                self.violation(
                    "sched", "fairness-spread", thread.name,
                    f"same-weight runnable spread {other_v - v} "
                    f"(vs {other.name}) exceeds bound {spread_v}",
                )

    # ------------------------------------------------------------------ #
    # trylocks (core.trylock, bound at construction)
    # ------------------------------------------------------------------ #

    def on_lock_acquire(self, lock, owner) -> None:
        if not self._lock:
            return
        self.checked["lock"] += 1
        key = id(lock)
        if not any(known is lock for known in self._locks):
            self._locks.append(lock)
        prev = self._held.get(key)
        if prev is not None:
            self.violation(
                "lock", "mutual-exclusion", lock.name,
                f"{getattr(owner, 'name', owner)!s} acquired while "
                f"{getattr(prev[1], 'name', prev[1])!s} still holds it",
            )
        self._held[key] = (lock, owner)

    def on_lock_release(self, lock, owner) -> None:
        if not self._lock:
            return
        self.checked["lock"] += 1
        held = self._held.pop(id(lock), None)
        if held is None:
            self.violation(
                "lock", "release-unheld", lock.name,
                f"{getattr(owner, 'name', owner)!s} released a lock the "
                "shadow map shows as free",
            )
        elif held[1] is not owner:
            self.violation(
                "lock", "release-by-owner", lock.name,
                f"{getattr(owner, 'name', owner)!s} released a lock held "
                f"by {getattr(held[1], 'name', held[1])!s}",
            )

    def on_lock_busy(self, lock, owner) -> None:
        """A trylock failed; someone must actually be holding it."""
        if not self._lock:
            return
        self.checked["lock"] += 1
        if id(lock) not in self._held:
            self.violation(
                "lock", "busy-without-holder", lock.name,
                f"{getattr(owner, 'name', owner)!s} saw the lock busy "
                "but the shadow map shows it free",
            )

    # ------------------------------------------------------------------ #
    # NIC (RxQueue, self-registered at construction via sim.monitor)
    # ------------------------------------------------------------------ #

    def register_queue(self, queue) -> None:
        if self._nic:
            self._queues.append(queue)

    def on_ring(self, queue) -> None:
        """Cheap per-sync bounds check on the descriptor ring."""
        if not self._nic:
            return
        self.checked["nic"] += 1
        ring = queue.ring
        occ = ring.occupancy
        if occ < 0 or occ > ring.capacity:
            self.violation(
                "nic", "ring-bounds", f"rxq{queue.index}",
                f"occupancy {occ} outside [0, {ring.capacity}]",
            )
        elif ring.max_occupancy > ring.capacity:
            self.violation(
                "nic", "ring-bounds", f"rxq{queue.index}",
                f"max occupancy {ring.max_occupancy} exceeds capacity "
                f"{ring.capacity}",
            )

    # ------------------------------------------------------------------ #
    # CPU time (CfsScheduler._leave_cpu, and quiesce)
    # ------------------------------------------------------------------ #

    def on_cpu_leave(self, thread) -> None:
        """``thread`` is leaving its core (sleep, preempt, yield, exit)
        with its accounting current: audit the core's time."""
        if not self._cpu:
            return
        self._check_vruntime(thread)
        self._check_core_time(thread.core)

    def _check_vruntime(self, thread) -> None:
        self.checked["cpu"] += 1
        v = thread.vruntime
        last = self._vruntime.get(thread)
        if last is not None and v < last:
            self.violation(
                "cpu", "vruntime-monotone", thread.name,
                f"vruntime fell from {last} to {v}",
            )
        self._vruntime[thread] = v

    def _check_core_time(self, core) -> None:
        self.checked["cpu"] += 1
        sched = self.machine.scheduler
        cputime = sum(t.cputime_ns for t in self.machine.threads
                      if t.core is core)
        inflight = sched.inflight_irq_ns(core)
        unsettled = sched.unsettled_ns(core)
        charged = (cputime + core.irq_ns + core.switch_ns
                   + core.exit_stall_ns - inflight + unsettled)
        busy = core.total_busy_ns()
        if busy != charged:
            self.violation(
                "cpu", "conservation", f"core{core.index}",
                f"busy span {busy} != cputime {cputime} + irq "
                f"{core.irq_ns} + switch {core.switch_ns} + stall "
                f"{core.exit_stall_ns} - inflight irq {inflight} + "
                f"unsettled {unsettled} (off by {busy - charged})",
            )

    # ------------------------------------------------------------------ #
    # end-of-run invariants
    # ------------------------------------------------------------------ #

    def quiesce(self, consumed: Optional[int] = None) -> List[Violation]:
        """Run the end-state checks; returns violations added here.

        * every registered queue conserves packets:
          ``arrived == popped + dropped + in-flight``;
        * no lock is held by a thread that cannot release it (a run cut
          off mid-drain legitimately leaves the drainer holding its
          lock — but a sleeping or dead holder can never release);
        * with ``consumed`` given (the workload's popped-packet count),
          the queues' pop totals match it exactly;
        * every core conserves CPU time and no thread's vruntime fell
          since it last left its CPU.
        """
        start = len(self.violations)
        if self._cpu:
            for thread in self.machine.threads:
                self._check_vruntime(thread)
            for core in self.machine.cores:
                self._check_core_time(core)
        if self._lock:
            held = sorted(self._held.values(),
                          key=lambda lo: getattr(lo[0], "name", ""))
            for lock, owner in held:
                self.checked["lock"] += 1
                state = getattr(owner, "state", None)
                if state not in (ThreadState.RUNNING, ThreadState.RUNNABLE):
                    self.violation(
                        "lock", "eventually-released", lock.name,
                        f"still held at quiesce by "
                        f"{getattr(owner, 'name', owner)!s} in state "
                        f"{state} (cannot ever release)",
                    )
        if self._nic:
            popped = 0
            for q in self._queues:
                q.sync()
                ring = q.ring
                self.checked["nic"] += 1
                popped += ring.head_seq
                accounted = ring.drops + ring.head_seq + ring.occupancy
                if q.arrived_total != accounted:
                    self.violation(
                        "nic", "conservation", f"rxq{q.index}",
                        f"arrived {q.arrived_total} != popped "
                        f"{ring.head_seq} + dropped {ring.drops} + "
                        f"in-flight {ring.occupancy}",
                    )
                if not 0 <= ring.occupancy <= ring.capacity:
                    self.violation(
                        "nic", "ring-bounds", f"rxq{q.index}",
                        f"occupancy {ring.occupancy} outside "
                        f"[0, {ring.capacity}] at quiesce",
                    )
            if consumed is not None and self._queues:
                self.checked["nic"] += 1
                if consumed != popped:
                    self.violation(
                        "nic", "delivered-matches-popped", "all-queues",
                        f"workload counted {consumed} packets but the "
                        f"rings gave out {popped}",
                    )
        return self.violations[start:]
