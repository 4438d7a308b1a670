"""The event loop: a bucketed calendar queue over an integer ns clock.

The paper's §3.1 contrasts the kernel's hierarchical timer wheel with
the precise ``hr_sleep`` path; the same design argument applies to the
simulator itself, which sits under every figure, sweep, and chaos run.
This engine therefore splits the pending-event store the way a calendar
queue does (generalizing :mod:`repro.kernel.timerwheel`):

* **near future** — a ring of ``_NUM_BUCKETS`` buckets, each
  ``2**_BUCKET_BITS`` ns wide.  Scheduling is a plain ``list.append``;
  a bucket is sorted once, when the clock reaches it, and then drained
  through a cursor.  Bucket storage is recycled through a freelist so
  the hot path allocates nothing but the entry itself.
* **far future** — events beyond the ring's horizon fall back to a
  binary heap, merged with the near stream at pop time.
* **in-drain arrivals** — callbacks scheduling into the tick currently
  being drained (``call_after(0, ...)`` chains) go to a small side heap
  merged with the sorted run.

Cancellation is still a tombstone flag (no structure surgery), but the
engine keeps a live-entry counter and **compacts** — physically drops
tombstones from every store — once they outnumber the live entries, so
cancel-heavy workloads (adaptive T_S re-arms, watchdog early wakes) no
longer grow the store without bound.

Fire order is exactly the old binary-heap order — ``(time, seq)``, FIFO
among same-time events — which the property tests assert against the
frozen pre-calendar loop in :mod:`repro.sim.reference`.

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

#: bucket width: 2**16 = 65536 ns (~65 µs — wide enough that µs-scale
#: event chains land many-per-bucket, amortizing the sort-on-stage)
_BUCKET_BITS = 16
#: near-future ring size; horizon = _NUM_BUCKETS << _BUCKET_BITS ≈ 4.2 ms
_NUM_BUCKETS = 64
_BUCKET_MASK = _NUM_BUCKETS - 1
#: recycled bucket-storage lists kept around
_FREELIST_MAX = 32
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
        #: near-future ring; slot ``tick & _BUCKET_MASK`` holds the
        #: unsorted entries of bucket ``tick``
        self._buckets: List[list] = [[] for _ in range(_NUM_BUCKETS)]
        #: entries currently stored in the ring (tombstones included)
        self._near_count = 0
        #: far-future fallback heap (beyond the ring horizon)
        self._far: List[list] = []
        #: the sorted entries of the bucket being drained + its cursor
        self._run: list = []
        self._run_pos = 0
        #: tick the current run was staged from (-1: nothing staged);
        #: entries scheduled at ticks <= _run_tick go to ``_extra``
        self._run_tick = -1
        #: side heap for in-drain arrivals at ticks <= _run_tick
        self._extra: List[list] = []
        #: scheduled entries that are neither fired nor cancelled
        self._live = 0
        #: tombstones still occupying one of the stores
        self._dead = 0
        #: recycled bucket-storage lists
        self._freelist: List[list] = []
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
        # routing is inlined here and in call_after (not factored into a
        # helper): this is the hottest allocation site in the simulator
        # and the extra call shows up directly in events/sec
        tick = when >> _BUCKET_BITS
        run_tick = self._run_tick
        if tick <= run_tick:
            # the entry's bucket is already staged (or drained past).  If
            # it sorts after the staged tail it can extend the sorted run
            # directly — the common case for chains re-scheduling into
            # the current bucket — keeping the run-loop fast path hot.
            run = self._run
            if tick == run_tick and (not run or run[-1] < entry):
                run.append(entry)
            else:
                heappush(self._extra, entry)
        elif tick - (self.now >> _BUCKET_BITS) < _NUM_BUCKETS:
            self._buckets[tick & _BUCKET_MASK].append(entry)
            self._near_count += 1
        else:
            heappush(self._far, entry)
        return Handle(entry, self)

    def call_after(self, delay: int, fn: Callable[..., None], *args: Any) -> Handle:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        now = self.now
        when = now + delay
        self._seq += 1
        entry = [when, self._seq, args, fn]
        self._live += 1
        tick = when >> _BUCKET_BITS
        run_tick = self._run_tick
        if tick <= run_tick:
            run = self._run
            if tick == run_tick and (not run or run[-1] < entry):
                run.append(entry)
            else:
                heappush(self._extra, entry)
        elif tick - (now >> _BUCKET_BITS) < _NUM_BUCKETS:
            self._buckets[tick & _BUCKET_MASK].append(entry)
            self._near_count += 1
        else:
            heappush(self._far, entry)
        return Handle(entry, self)

    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event` bound to this simulator."""
        return Event(self)

    # ------------------------------------------------------------------ #
    # Store maintenance
    # ------------------------------------------------------------------ #

    def _near_head(self) -> Optional[list]:
        """The earliest near-future entry, tombstones pruned, or None.

        Advances the drain cursor across exhausted buckets; the returned
        entry stays staged at the head of its store.
        """
        while True:
            run = self._run
            pos = self._run_pos
            n = len(run)
            while pos < n and run[pos][3] is None:
                pos += 1
                self._dead -= 1
            self._run_pos = pos
            extra = self._extra
            while extra and extra[0][3] is None:
                heappop(extra)
                self._dead -= 1
            if pos < n:
                head = run[pos]
                if extra and extra[0] < head:
                    return extra[0]
                return head
            if extra:
                return extra[0]
            if not self._near_count:
                return None
            # stage the next nonempty bucket in the window
            now_tick = self.now >> _BUCKET_BITS
            start = self._run_tick + 1
            if start < now_tick:
                start = now_tick
            buckets = self._buckets
            staged = None
            for tick in range(start, now_tick + _NUM_BUCKETS):
                lst = buckets[tick & _BUCKET_MASK]
                if lst:
                    # recycle the consumed run as this slot's new storage
                    del run[:]
                    buckets[tick & _BUCKET_MASK] = run
                    lst.sort()
                    self._run = lst
                    self._run_pos = 0
                    self._run_tick = tick
                    self._near_count -= len(lst)
                    staged = lst
                    break
            if staged is None:
                # only out-of-window tombstones remain in the ring
                return None

    def _pop_entry(self, limit: Optional[int] = None) -> Optional[list]:
        """Remove and return the earliest live entry, or None.

        With ``limit``, entries due after it are left in place and None
        is returned (the ``run(until=...)`` boundary).
        """
        near = self._near_head()
        far = self._far
        while far and far[0][3] is None:
            heappop(far)
            self._dead -= 1
        if far and (near is None or far[0] < near):
            if limit is not None and far[0][0] > limit:
                return None
            return heappop(far)
        if near is None:
            return None
        if limit is not None and near[0] > limit:
            return None
        run = self._run
        pos = self._run_pos
        if pos < len(run) and run[pos] is near:
            self._run_pos = pos + 1
        else:
            heappop(self._extra)
        return near

    def _compact(self) -> None:
        """Physically drop every tombstone from every store.

        Called once tombstones outnumber live entries, so a cancel-heavy
        workload pays O(n) rarely instead of carrying dead entries to
        their due time (the old heap's behaviour).
        """
        far = [e for e in self._far if e[3] is not None]
        heapify(far)
        self._far = far
        extra = [e for e in self._extra if e[3] is not None]
        heapify(extra)
        self._extra = extra
        run = [e for e in self._run[self._run_pos:] if e[3] is not None]
        self._run = run
        self._run_pos = 0
        near = 0
        buckets = self._buckets
        freelist = self._freelist
        for i, lst in enumerate(buckets):
            if not lst:
                continue
            kept = [e for e in lst if e[3] is not None]
            if kept:
                buckets[i] = kept
                near += len(kept)
            else:
                buckets[i] = freelist.pop() if freelist else []
            del lst[:]
            if len(freelist) < _FREELIST_MAX:
                freelist.append(lst)
        self._near_count = near
        self._dead = 0

    # ------------------------------------------------------------------ #
    # Run loop
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Run the single earliest pending callback.

        Returns False when the calendar is empty (nothing ran).
        """
        entry = self._pop_entry()
        if entry is None:
            return False
        if self.monitor is not None:
            self.monitor.on_execute(self.now, entry[0])
        fn = entry[3]
        entry[3] = _FIRED
        self._live -= 1
        self.now = entry[0]
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
        try:
            while not self._stopped:
                # fast path: next staged entry is live and nothing in the
                # side heaps can come before it
                run = self._run
                pos = self._run_pos
                if pos < len(run) and not self._extra:
                    entry = run[pos]
                    fn = entry[3]
                    far = self._far
                    if fn is not None and (not far or entry < far[0]):
                        when = entry[0]
                        if until is not None and when > until:
                            break
                        self._run_pos = pos + 1
                        if self.monitor is not None:
                            self.monitor.on_execute(self.now, when)
                        entry[3] = _FIRED
                        self._live -= 1
                        self.now = when
                        fn(*entry[2])
                        continue
                entry = self._pop_entry(limit=until)
                if entry is None:
                    break
                if self.monitor is not None:
                    self.monitor.on_execute(self.now, entry[0])
                fn = entry[3]
                entry[3] = _FIRED
                self._live -= 1
                self.now = entry[0]
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
        if self._live:
            # the staged run's head is the earliest entry when it is
            # live and neither side heap holds anything before it
            run = self._run
            pos = self._run_pos
            far = self._far
            if (pos < len(run) and run[pos][3] is not None and not self._extra
                    and (not far or run[pos] < far[0])):
                head = run[pos][0]
            else:
                head = self.peek()
            if head is not None and head <= when:
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
        ``(time, seq)`` multiset of every live entry across all stores.
        Two deterministic replays that agree on this multiset (and on
        ``now``/``_seq``) fire the same callbacks in the same order.
        Unlike :meth:`peek`, nothing is staged or popped here.
        """
        pending = [
            (e[0], e[1])
            for store in (self._run[self._run_pos:], self._extra, self._far)
            for e in store
            if e[3] is not None
        ]
        pending.extend(
            (e[0], e[1])
            for lst in self._buckets
            for e in lst
            if e[3] is not None
        )
        pending.sort()
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

        Monotonic counter (cancellations included) — the denominator
        ``repro bench`` uses for events/sec throughput.  An inlined
        completion counts exactly like the calendar entry it replaces,
        so the value does not depend on how many were inlined.
        """
        return self._seq

    def peek(self) -> Optional[int]:
        """Time of the next live scheduled callback, or None if empty."""
        near = self._near_head()
        far = self._far
        while far and far[0][3] is None:
            heappop(far)
            self._dead -= 1
        if near is None:
            return far[0][0] if far else None
        if far and far[0] < near:
            return far[0][0]
        return near[0]
