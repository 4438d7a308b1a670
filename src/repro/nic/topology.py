"""RSS trace sharding across the queues of one port.

The paper's testbed is one port with 2 RSS queues on one NUMA node
(§3.3); production 100G deployments spread 16–64 queues across sockets
(per-queue placement is :class:`~repro.nic.device.NicPort`'s
``queue_nodes``).  This module splits a replayed trace across those
queues:

* :class:`FixedSchedule` — the counting every schedule-backed arrival
  process shares: the trace replay and each of its shards;
* :func:`rss_shard` — partition one replayed trace across N queues via
  the real Toeplitz redirection table, lifting ``run_xdp``'s
  single-queue restriction for stateful arrival processes;
* :class:`ReplayShard` — the per-queue arrival process a shard becomes:
  a subsequence of the master schedule.

Everything here is pure construction-time arithmetic: no simulator
events, no RNG draws, so sharding a trace never perturbs a run.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional

import numpy as np

from repro.nic.flows import FlowSet
from repro.nic.rss import MICROSOFT_KEY, RssSteering
from repro.nic.traffic import ArrivalProcess
from repro.sim.units import SEC

#: later than any int64 arrival time
_NEVER = 1 << 63
#: entries past the counted prefix a count first searches.  Few syncs
#: bring more arrivals: on ``xdp-trace`` at seed 1, 46,598 of 46,607
#: ``advance`` calls and all 8,057 ``next_arrival_after`` calls count
#: at most 64 past the prefix (16,157 of the syncs count none)
_WINDOW = 64


def frozen_column(values) -> np.ndarray:
    """``values`` as a read-only, contiguous ``int64`` array.

    An array that already is one is shared, not copied.
    """
    col = np.ascontiguousarray(values, dtype=np.int64)
    col.flags.writeable = False
    return col


class FixedSchedule(ArrivalProcess):
    """Arrivals at a fixed schedule of absolute times.

    ``times`` is non-decreasing and ``>= 1`` (arrivals live in
    ``(0, t]``); ``flows``/``lens`` are aligned with it.  All three
    columns are read-only arrays; the per-event lookups (``bisect`` on
    a ``sync``) run on a memoryview of ``times``, which reads Python
    ints straight from the column (several times faster there than
    ``searchsorted``, with no per-record copy).  Every count is one
    ``bisect``: no time before the first entry counts anything.  A
    count at or after ``last_t`` searches only past the ``total``
    arrivals already counted, first within the next ``_WINDOW``
    entries, and ``advance`` skips the search while nothing new is due.
    """

    def __init__(self, times, flows, lens):
        self._schedule = frozen_column(times)
        self._flows = frozen_column(flows)
        self._lens = frozen_column(lens)
        self._times = memoryview(self._schedule)
        self._n = len(self._times)
        self.last_t = 0
        self.total = 0
        #: the first arrival not yet counted (past every int64 at the end)
        self._next_t = self._times[0] if self._n else _NEVER

    # -- counting --------------------------------------------------------- #

    def advance(self, t1: int) -> int:
        if t1 < self.last_t:
            raise ValueError(f"advance moving backwards: {t1} < {self.last_t}")
        self.last_t = t1
        if t1 < self._next_t:
            return 0
        total = self._count_at(t1)
        n = total - self.total
        self.total = total
        self._next_t = self._times[total] if total < self._n else _NEVER
        return n

    def _count_at(self, t: int) -> int:
        """``bisect_right(times, t)``: the arrivals in ``(0, t]``."""
        times = self._times
        if t < self.last_t:
            return bisect_right(times, t)
        # the first ``total`` entries are <= last_t <= t
        lo = self.total
        hi = lo + _WINDOW
        if hi < self._n and times[hi] > t:
            return bisect_right(times, t, lo, hi)
        return bisect_right(times, t, lo)

    def next_arrival_after(self, t: int) -> Optional[int]:
        idx = self._count_at(t)
        return self._times[idx] if idx < self._n else None

    def time_for_count(self, t: int, k: int) -> Optional[int]:
        """Exact: the arrival time of the k-th packet after ``t``."""
        if k <= 0:
            return t
        idx = self._count_at(t) + k - 1
        return self._times[idx] if idx < self._n else None

    # -- flow plumbing --------------------------------------------------- #

    def flow_of(self, seq: int) -> Optional[int]:
        """The scheduled flow id of arrival ``seq`` (None past the end)."""
        return int(self._flows[seq]) if seq < self._n else None

    def len_of(self, seq: int) -> Optional[int]:
        """The scheduled frame length of arrival ``seq``."""
        return int(self._lens[seq]) if seq < self._n else None

    # -- schedule access (read-only; RSS sharding) ------------------------- #

    @property
    def schedule_times(self) -> np.ndarray:
        """The arrival times (read-only)."""
        return self._schedule

    @property
    def schedule_flows(self) -> np.ndarray:
        """Per-arrival flow ids aligned with :attr:`schedule_times`."""
        return self._flows

    @property
    def schedule_lens(self) -> np.ndarray:
        """Per-arrival frame lengths aligned with :attr:`schedule_times`."""
        return self._lens


class ReplayShard(FixedSchedule):
    """One RSS queue's slice of a replayed trace.

    Holds the subsequence of the master schedule steered to this queue,
    so the union of all shards reproduces the master schedule exactly
    (tested in ``tests/scale``).
    """

    def __init__(self, times, flows, lens, label: str = "shard"):
        super().__init__(times, flows, lens)
        self.label = label

    def rate_at(self, t: int) -> float:
        """Nominal mean rate of the shard (reporting/pacing only)."""
        if self._n == 0:
            return 0.0
        last = self._times[-1]
        if 0 <= t <= last:
            return self._n * SEC / max(1, last)
        return 0.0

    # -- checkpointing ---------------------------------------------------- #

    def snapshot_state(self) -> dict:
        return {
            "kind": "replay-shard",
            "label": self.label,
            "n": self._n,
            "total": self.total,
            "last_t": self.last_t,
        }


def rss_shard(
    process: ArrivalProcess,
    num_queues: int,
    flows: Optional[FlowSet] = None,
    key: bytes = MICROSOFT_KEY,
    table_size: int = 128,
) -> List[ReplayShard]:
    """Partition a replayed trace across ``num_queues`` RSS queues.

    Resolves each scheduled arrival's flow id to a header through
    ``flows`` (the same mapping :meth:`RxQueue._tag_interval` applies:
    ``flow % flows.num_flows``), steers the header through a default
    round-robin Toeplitz redirection table, and emits one
    :class:`ReplayShard` per queue.  The shards conserve packets: their
    schedule lengths sum to the master's.

    Only schedule-backed processes (:class:`FixedSchedule`, e.g.
    :class:`~repro.traffic.replay.TraceReplayProcess`) can be sharded.
    Synthetic processes (CBR/Poisson) have no per-packet flow schedule;
    split their *rate* across queues instead.

    Each distinct header is hashed once; one gather maps every arrival
    to its queue in the narrowest unsigned dtype that holds the queue
    ids.  One stable sort (a radix sort for 8- and 16-bit keys) groups
    the records by queue, in order within each, and every column is
    permuted once: each shard's columns are contiguous slices of those.
    """
    if num_queues < 1:
        raise ValueError("need at least one queue")
    if not isinstance(process, FixedSchedule):
        raise ValueError(
            f"cannot RSS-shard {type(process).__name__}: the process has "
            "no fixed per-packet schedule (only trace replays do); for "
            "synthetic sources split the rate across queues instead"
        )
    flows = flows or FlowSet()
    steering = RssSteering(num_queues, key=key, table_size=table_size)
    nf = flows.num_flows
    header_idx = process.schedule_flows % nf
    queue_of_header = np.zeros(nf, dtype=np.min_scalar_type(num_queues - 1))
    for h in np.flatnonzero(np.bincount(header_idx, minlength=nf)).tolist():
        queue_of_header[h] = steering.queue_for(flows.header_of_flow(h))
    queue = queue_of_header[header_idx]
    order = np.argsort(queue, kind="stable")
    ends = np.cumsum(np.bincount(queue, minlength=num_queues)).tolist()
    times = process.schedule_times.take(order)
    flow_ids = process.schedule_flows.take(order)
    lens = process.schedule_lens.take(order)
    shards = []
    start = 0
    for q, end in enumerate(ends):
        shards.append(ReplayShard(
            times[start:end], flow_ids[start:end], lens[start:end],
            label=f"shard{q}",
        ))
        start = end
    return shards
