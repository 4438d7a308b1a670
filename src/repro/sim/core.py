"""The event loop: one binary heap of pending entries over an integer ns clock.

Every scheduled callback is one mutable entry ``[time, seq, args, fn]``
on a single heap ordered by ``(time, seq)``, so events fire in time
order and FIFO among same-time events.  The pending set stays small
(the benchmark deployments hold at most a dozen live entries at once),
and most completions never reach the heap at all because
:meth:`Simulator.advance_to` fires them in place.

Cancellation is a tombstone flag (no structure surgery): a cancelled
entry is popped when it reaches the head.  The engine keeps a
live-entry counter and **compacts** the heap, physically dropping every
tombstone, once they outnumber the live entries, so cancel-heavy
workloads (adaptive T_S re-arms, watchdog early wakes) do not grow the
store without bound.  The property tests pin the fire order against the
frozen, uncompacted loop in :mod:`repro.sim.reference`.

Two levels of abstraction are offered:

* raw callbacks (:meth:`Simulator.call_at` / :meth:`Simulator.call_after`)
  used by the performance-critical subsystems (scheduler, NIC);
* :class:`Event` objects, used where several parties need to wait on one
  occurrence (thread exits, IRQ lines, experiment completion).
"""

from __future__ import annotations

import hashlib
import json
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

#: tombstones tolerated before a compaction is considered
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulator (e.g. scheduling in the past)."""


#: sentinel stored in entry[3] once the callback has actually run, so a
#: late cancel() cannot masquerade as having prevented execution
_FIRED = object()


class Handle:
    """A cancellable reference to a scheduled callback.

    ``Handle`` wraps the mutable store entry; calling :meth:`cancel`
    marks the entry dead without touching the store (the run loop and
    the compactor discard it later).  Entries are marked fired when
    their callback runs, so :attr:`cancelled` and :attr:`fired` stay
    mutually exclusive even if :meth:`cancel` is called after the fact.
    """

    __slots__ = ("_entry", "_sim")

    def __init__(self, entry: list, sim: "Simulator"):
        self._entry = entry
        self._sim = sim

    @property
    def time(self) -> int:
        """The simulated time at which the callback is due."""
        return self._entry[0]

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the callback fired."""
        return self._entry[3] is None

    @property
    def fired(self) -> bool:
        """True once the callback has actually run."""
        return self._entry[3] is _FIRED

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent; a no-op on an
        entry whose callback already ran (which stays ``fired``, not
        ``cancelled``)."""
        entry = self._entry
        fn = entry[3]
        if fn is None or fn is _FIRED:
            return
        entry[3] = None
        sim = self._sim
        sim._live -= 1
        dead = sim._dead + 1
        sim._dead = dead
        if dead > _COMPACT_MIN and dead > sim._live:
            sim._compact()


class Event:
    """A one-shot occurrence that callbacks can wait on.

    An event starts untriggered; :meth:`succeed` fires it exactly once,
    delivering an optional value to every registered callback.  Callbacks
    added after the event fired run immediately (same simulated instant).
    """

    __slots__ = ("sim", "triggered", "value", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._callbacks: List[Callable[["Event"], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, invoking all waiters synchronously.

        Raises :class:`SimulationError` if the event already fired.
        """
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; runs now if already triggered."""
        if self.triggered:
            callback(self)
        else:
            self._callbacks.append(callback)


class Simulator:
    """The discrete-event loop and virtual clock.

    Attributes:
        now: current simulated time in integer nanoseconds.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._running = False
        self._stopped = False
        #: the active run()'s ``until`` bound (advance_to honours it)
        self._until: Optional[int] = None
        #: pending entries ``[time, seq, args, fn]``, a binary heap on
        #: ``(time, seq)``; cancelled entries stay as tombstones until
        #: they reach the head or a compaction drops them
        self._heap: List[list] = []
        #: scheduled entries that are neither fired nor cancelled
        self._live = 0
        #: tombstones still on the heap
        self._dead = 0
        #: optional invariant monitor (repro.check).  None keeps the
        #: run loop on its fast path; when set, on_execute() observes
        #: every live event pop (clock monotonicity) and RxQueues
        #: self-register for conservation checks at construction.
        self.monitor = None
        #: NIC components self-register here at construction so a
        #: checkpoint (repro.sim.snapshot) can enumerate them in a
        #: stable order without the Machine knowing the NIC topology
        self.rx_queues: list = []
        self.nic_ports: list = []

    # ------------------------------------------------------------------ #
    # Scheduling primitives
    # ------------------------------------------------------------------ #

    def call_at(self, when: int, fn: Callable[..., None], *args: Any) -> Handle:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at t={when} (now={self.now}): time travels forward"
            )
        self._seq += 1
        entry = [when, self._seq, args, fn]
        self._live += 1
        heappush(self._heap, entry)
        return Handle(entry, self)

    def call_after(self, delay: int, fn: Callable[..., None], *args: Any) -> Handle:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        # not a call_at() wrapper: this is the hottest allocation site in
        # the simulator, and perfbench's span tracer wraps both methods,
        # so delegating would wrap every callback twice
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq += 1
        entry = [self.now + delay, self._seq, args, fn]
        self._live += 1
        heappush(self._heap, entry)
        return Handle(entry, self)

    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event` bound to this simulator."""
        return Event(self)

    # ------------------------------------------------------------------ #
    # Store maintenance
    # ------------------------------------------------------------------ #

    def _compact(self) -> None:
        """Physically drop every tombstone from the heap.

        Called once tombstones outnumber live entries, so a cancel-heavy
        workload pays O(n) rarely instead of carrying dead entries to
        their due time (the frozen reference loop's behaviour).  The
        list is filtered in place: :meth:`run` holds it while a callback
        may cancel, and so compact.
        """
        heap = self._heap
        heap[:] = [e for e in heap if e[3] is not None]
        heapify(heap)
        self._dead = 0

    # ------------------------------------------------------------------ #
    # Run loop
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Run the single earliest pending callback.

        Returns False when the calendar is empty (nothing ran).
        """
        if self.peek() is None:
            return False
        entry = heappop(self._heap)
        when = entry[0]
        if self.monitor is not None:
            self.monitor.on_execute(self.now, when)
        fn = entry[3]
        entry[3] = _FIRED
        self._live -= 1
        self.now = when
        fn(*entry[2])
        return True

    def run(self, until: Optional[int] = None) -> None:
        """Run callbacks until the calendar empties or ``until`` is reached.

        When ``until`` is given, the clock is advanced exactly to ``until``
        even if the last event fired earlier, so measurement windows have a
        well-defined end time.
        """
        if self._running:
            raise SimulationError("simulator is re-entrant only via step()")
        self._running = True
        self._stopped = False
        self._until = until
        # compaction filters this same list in place, so the alias holds
        heap = self._heap
        try:
            while heap and not self._stopped:
                entry = heap[0]
                fn = entry[3]
                if fn is None:
                    heappop(heap)
                    self._dead -= 1
                    continue
                when = entry[0]
                if until is not None and when > until:
                    break
                heappop(heap)
                if self.monitor is not None:
                    self.monitor.on_execute(self.now, when)
                entry[3] = _FIRED
                self._live -= 1
                self.now = when
                fn(*entry[2])
        finally:
            self._running = False
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def stop(self) -> None:
        """Halt :meth:`run` after the current callback returns."""
        self._stopped = True

    def advance_to(self, when: int) -> bool:
        """Fire an event due at ``when`` in place instead of scheduling it.

        A caller about to ``call_at(when, fn)`` may instead ask to move
        the clock there and run ``fn``'s work itself.  That is only
        equivalent when the entry would be the very next one to fire, so
        this succeeds only if all of these hold:

        * it is called inside :meth:`run`, and :meth:`stop` has not been
          called since;
        * ``when`` is at or before the run's ``until`` bound;
        * ``when`` is strictly earlier than every live entry (an entry
          at exactly ``when`` was scheduled first, so it fires first).

        On success it does exactly what firing the replaced entry would:
        it consumes one sequence number (so :attr:`events_scheduled` and
        checkpoint fingerprints are unchanged), reports the execution to
        the clock monitor, and sets :attr:`now` to ``when``.  On refusal
        nothing changes and the caller schedules the entry as usual.

        The caller must be in tail position: nothing still on its call
        stack between the run loop and the caller may act at the old
        clock after it returns (the scheduler inlines inside a
        synchronous dispatch only when the wake that caused it was the
        last act of its calendar callback).
        """
        if when < self.now:
            raise SimulationError(
                f"cannot advance to t={when} (now={self.now}): time travels forward"
            )
        if not self._running or self._stopped:
            return False
        until = self._until
        if until is not None and when > until:
            return False
        if self._live and self.peek() <= when:
            return False
        self._seq += 1
        if self.monitor is not None:
            self.monitor.on_execute(self.now, when)
        self.now = when
        return True

    @property
    def pending(self) -> int:
        """Number of live scheduled callbacks (tombstones excluded)."""
        return self._live

    def snapshot_state(self) -> dict:
        """Checkpoint fingerprint of the calendar (pure read).

        Entries hold live callbacks, which cannot leave the process, so
        the snapshot pins the *observable* structure instead: the sorted
        ``(time, seq)`` multiset of every live entry.  Two deterministic
        replays that agree on this multiset (and on ``now``/``_seq``)
        fire the same callbacks in the same order.  Unlike :meth:`peek`,
        nothing is popped here.
        """
        pending = sorted((e[0], e[1]) for e in self._heap if e[3] is not None)
        digest = hashlib.sha256(
            json.dumps(pending, separators=(",", ":")).encode()
        ).hexdigest()
        return {
            "now": self.now,
            "seq": self._seq,
            "live": self._live,
            "pending_digest": digest,
        }

    @property
    def events_scheduled(self) -> int:
        """Calendar entries scheduled plus events fired in place by
        :meth:`advance_to`, since construction.

        Monotonic counter (cancellations included), reported by
        perfbench as ``sim.events``.  An inlined completion counts
        exactly like the calendar entry it replaces, so the value does
        not depend on how many were inlined.
        """
        return self._seq

    def peek(self) -> Optional[int]:
        """Time of the next live scheduled callback, or None if empty.

        Tombstones at the head are popped on the way.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3] is not None:
                return entry[0]
            heappop(heap)
            self._dead -= 1
        return None
