"""The original binary-heap event loop, frozen as a reference oracle.

This is the first :class:`~repro.sim.core.Simulator`, kept verbatim
(minus the monitor hook): one heap whose tombstones wait for their due
time, with no compaction, live counter or in-place firing.  Its one
consumer is the property tests, which drive random
schedule/cancel/stop/step sequences through both engines and assert
identical fire order and next due time.

It is **not** part of the simulation: nothing other than the tests may
import it.  Bug fixes to the live core do not
need to be mirrored here — the point is that this file never changes.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.sim.core import SimulationError

#: sentinel stored in entry[3] once the callback has actually run
_FIRED = object()


class HeapHandle:
    """Cancellable reference to a scheduled callback (tombstone flag)."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    @property
    def time(self) -> int:
        return self._entry[0]

    @property
    def cancelled(self) -> bool:
        return self._entry[3] is None

    @property
    def fired(self) -> bool:
        return self._entry[3] is _FIRED

    def cancel(self) -> None:
        if self._entry[3] is not _FIRED:
            self._entry[3] = None


class HeapSimulator:
    """The original event loop: one heap, tombstones popped lazily.

    Cancelled entries stay in the heap until their time comes up, so a
    cancel-heavy workload grows the heap without bound — the exact
    behaviour the live core's compaction removes.  Property tests pin
    the live core's firing order against it.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: List[list] = []
        self._seq: int = 0
        self._running = False
        self._stopped = False

    def call_at(self, when: int, fn: Callable[..., None], *args: Any) -> HeapHandle:
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at t={when} (now={self.now}): time travels forward"
            )
        self._seq += 1
        entry = [when, self._seq, args, fn]
        heapq.heappush(self._heap, entry)
        return HeapHandle(entry)

    def call_after(self, delay: int, fn: Callable[..., None], *args: Any) -> HeapHandle:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.now + delay, fn, *args)

    def step(self) -> bool:
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            fn = entry[3]
            if fn is None:
                continue
            entry[3] = _FIRED
            self.now = entry[0]
            fn(*entry[2])
            return True
        return False

    def run(self, until: Optional[int] = None) -> None:
        if self._running:
            raise SimulationError("simulator is re-entrant only via step()")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and not self._stopped:
                if until is not None and heap[0][0] > until:
                    break
                entry = pop(heap)
                fn = entry[3]
                if fn is None:
                    continue
                entry[3] = _FIRED
                self.now = entry[0]
                fn(*entry[2])
        finally:
            self._running = False
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def stop(self) -> None:
        self._stopped = True

    @property
    def pending(self) -> int:
        """Stored entries, tombstones included (the old over-report)."""
        return len(self._heap)

    def peek(self) -> Optional[int]:
        heap = self._heap
        while heap and heap[0][3] is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
