"""RSS trace sharding across the queues of one port.

The paper's testbed is one port with 2 RSS queues on one NUMA node
(§3.3); production 100G deployments spread 16–64 queues across sockets
(per-queue placement is :class:`~repro.nic.device.NicPort`'s
``queue_nodes``).  This module splits a replayed trace across those
queues:

* :func:`rss_shard` — partition one replayed trace across N queues via
  the real Toeplitz redirection table, lifting ``run_xdp``'s
  single-queue restriction for stateful arrival processes;
* :class:`ReplayShard` — the per-queue arrival process a shard becomes:
  a subsequence of the master schedule that shares the master's loop
  cycle, so the shards stay mutually aligned forever.

Everything here is pure construction-time arithmetic: no simulator
events, no RNG draws, so sharding a trace never perturbs a run.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional

from repro.nic.flows import FlowSet
from repro.nic.rss import MICROSOFT_KEY, RssSteering
from repro.nic.traffic import ArrivalProcess
from repro.sim.units import SEC


class ReplayShard(ArrivalProcess):
    """One RSS queue's slice of a replayed trace.

    Holds the subsequence of the master schedule steered to this queue
    but keeps the *master's* loop cycle, so on every loop iteration the
    shards replay their slices in mutual alignment — the union of all
    shards reproduces the master schedule exactly (tested in
    ``tests/scale``).  Counting logic mirrors
    :class:`~repro.traffic.replay.TraceReplayProcess`.
    """

    def __init__(
        self,
        times: List[int],
        flows: List[int],
        lens: List[int],
        cycle: int,
        loop: bool,
        start: int = 0,
        label: str = "shard",
    ):
        self._times = times
        self._flows = flows
        self._lens = lens
        self._n = len(times)
        self._cycle = max(1, cycle)
        self.loop = loop
        self.start = start
        self.last_t = start
        self.total = 0
        self.label = label

    # -- counting (same arithmetic as TraceReplayProcess) --------------- #

    def _count_at(self, t: int) -> int:
        rel = t - self.start
        if rel <= 0 or self._n == 0:
            return 0
        if not self.loop:
            return bisect_right(self._times, rel)
        cycles, rem = divmod(rel, self._cycle)
        return cycles * self._n + bisect_right(self._times, rem)

    def advance(self, t1: int) -> int:
        if t1 < self.last_t:
            raise ValueError(f"advance moving backwards: {t1} < {self.last_t}")
        n = self._count_at(t1) - self.total
        self.total += n
        self.last_t = t1
        return n

    def next_arrival_after(self, t: int) -> Optional[int]:
        if self._n == 0:
            return None
        rel = t - self.start
        if rel < 0:
            return self.start + self._times[0]
        if not self.loop:
            idx = bisect_right(self._times, rel)
            if idx >= self._n:
                return None
            return self.start + self._times[idx]
        cycles, rem = divmod(rel, self._cycle)
        idx = bisect_right(self._times, rem)
        if idx < self._n:
            return self.start + cycles * self._cycle + self._times[idx]
        return self.start + (cycles + 1) * self._cycle + self._times[0]

    def rate_at(self, t: int) -> float:
        """Nominal mean rate of the shard (reporting/pacing only)."""
        if self._n == 0:
            return 0.0
        rel = t - self.start
        if self.loop:
            return self._n * SEC / self._cycle
        if 0 <= rel <= self._times[-1]:
            return self._n * SEC / max(1, self._times[-1])
        return 0.0

    def time_for_count(self, t: int, k: int) -> Optional[int]:
        """Exact: the arrival time of the k-th packet after ``t``."""
        if k <= 0:
            return t
        if self._n == 0:
            return None
        idx = self._count_at(t) + k - 1
        if not self.loop:
            if idx >= self._n:
                return None
            return self.start + self._times[idx]
        cycles, j = divmod(idx, self._n)
        return self.start + cycles * self._cycle + self._times[j]

    # -- flow plumbing --------------------------------------------------- #

    def flow_of(self, seq: int) -> Optional[int]:
        if self._n == 0:
            return None
        if self.loop:
            return self._flows[seq % self._n]
        if seq >= self._n:
            return None
        return self._flows[seq]

    def len_of(self, seq: int) -> Optional[int]:
        if self._n == 0:
            return None
        if self.loop:
            return self._lens[seq % self._n]
        if seq >= self._n:
            return None
        return self._lens[seq]

    # -- checkpointing ---------------------------------------------------- #

    def snapshot_state(self) -> dict:
        return {
            "kind": "replay-shard",
            "label": self.label,
            "n": self._n,
            "cycle": self._cycle,
            "loop": self.loop,
            "start": self.start,
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
    schedule lengths sum to the master's, and under ``loop`` they share
    the master cycle so alignment holds across iterations.

    Only schedule-backed processes can be sharded — the process must
    expose ``schedule_times``/``schedule_flows``/``schedule_lens`` and
    ``cycle_ns`` (:class:`~repro.traffic.replay.TraceReplayProcess`
    does).  Synthetic processes (CBR/Poisson) have no per-packet flow
    schedule; split their *rate* across queues instead.
    """
    if num_queues < 1:
        raise ValueError("need at least one queue")
    times = getattr(process, "schedule_times", None)
    flow_ids = getattr(process, "schedule_flows", None)
    lens = getattr(process, "schedule_lens", None)
    cycle = getattr(process, "cycle_ns", None)
    if times is None or flow_ids is None or lens is None or cycle is None:
        raise ValueError(
            f"cannot RSS-shard {type(process).__name__}: the process has "
            "no fixed per-packet schedule (only trace replays do); for "
            "synthetic sources split the rate across queues instead"
        )
    flows = flows or FlowSet()
    steering = RssSteering(num_queues, key=key, table_size=table_size)
    nf = flows.num_flows
    # flow id -> queue, cached: traces carry few distinct flows relative
    # to packets, and the Toeplitz hash is the expensive part
    queue_of_flow: dict = {}
    per_times: List[List[int]] = [[] for _ in range(num_queues)]
    per_flows: List[List[int]] = [[] for _ in range(num_queues)]
    per_lens: List[List[int]] = [[] for _ in range(num_queues)]
    for t, flow, length in zip(times, flow_ids, lens):
        q = queue_of_flow.get(flow)
        if q is None:
            q = steering.queue_for(flows.header_of_flow(flow % nf))
            queue_of_flow[flow] = q
        per_times[q].append(t)
        per_flows[q].append(flow)
        per_lens[q].append(length)
    loop = bool(getattr(process, "loop", False))
    start = getattr(process, "start", 0)
    return [
        ReplayShard(
            per_times[q],
            per_flows[q],
            per_lens[q],
            cycle,
            loop,
            start=start,
            label=f"shard{q}",
        )
        for q in range(num_queues)
    ]
