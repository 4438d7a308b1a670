"""The receive queue: arrival process + descriptor ring + tagged packets.

``sync()`` lazily materializes everything that arrived since the last
touch: it advances the arrival process, offers the new packets to the
ring (tail-dropping the overflow), and enqueues the sampled
:class:`~repro.nic.packet.TaggedPacket` objects whose position landed
inside the accepted prefix.  Tagged arrival timestamps are interpolated
linearly across the interval — for CBR that is exact; for a Poisson
process it is the conditional mean of the order statistics.

``rx_burst(n)`` implements DPDK ``rte_eth_rx_burst`` semantics: sync,
pop up to ``n`` descriptors, and hand back any tagged packets contained
in the popped range.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from repro import config
from repro.nic.flows import FlowSet
from repro.nic.packet import TaggedPacket
from repro.nic.ring import DescriptorRing
from repro.nic.traffic import ArrivalProcess
from repro.sim.core import Simulator


class RxQueue:
    """One NIC receive queue."""

    def __init__(
        self,
        sim: Simulator,
        process: ArrivalProcess,
        flows: Optional[FlowSet] = None,
        ring_size: int = config.DEFAULT_RX_RING,
        sample_every: int = config.LATENCY_SAMPLE_EVERY,
        index: int = 0,
        node: int = 0,
    ):
        self.sim = sim
        self.process = process
        self.flows = flows or FlowSet()
        self.ring = DescriptorRing(ring_size)
        self.sample_every = max(1, sample_every)
        self.index = index
        #: NUMA node whose memory holds this queue's ring/mbufs; threads
        #: on another socket pay remote-access surcharges when draining
        self.node = node
        #: accepted tagged packets still inside the ring, FIFO by seq
        self._tagged: deque = deque()
        #: tagged packets that were tail-dropped (loss accounting)
        self.tagged_drops = 0
        #: arrivals offered so far (accepted + dropped)
        self.arrived_total = 0
        #: optional repro.check registry (packet conservation / ring
        #: bounds); queues self-register so every construction path —
        #: Metronome, DPDK baseline, XDP — is covered
        self.checks = getattr(sim, "monitor", None)
        if self.checks is not None:
            self.checks.register_queue(self)
        queues = getattr(sim, "rx_queues", None)
        if queues is not None:
            queues.append(self)

    # ------------------------------------------------------------------ #

    def sync(self) -> int:
        """Materialize arrivals up to now; returns newly accepted count."""
        t1 = self.sim.now
        t0 = self.process.last_t
        n = self.process.advance(t1)
        if n == 0:
            return 0
        first_seq = self.arrived_total
        self.arrived_total += n
        accepted = self.ring.offer(n)
        # the distance to the next multiple of sample_every: only an
        # interval holding one can tag a packet or count a tagged drop
        if -first_seq % self.sample_every < n:
            self._tag_interval(t0, t1, first_seq, n, accepted)
        if self.checks is not None:
            self.checks.on_ring(self)
        return accepted

    def _tag_interval(
        self, t0: int, t1: int, first_seq: int, n: int, accepted: int
    ) -> None:
        k = self.sample_every
        # first multiple of k that is >= first_seq
        seq = ((first_seq + k - 1) // k) * k
        end_seq = first_seq + n
        span = t1 - t0
        # ring seq of the first packet accepted in this interval: the
        # ring counts accepted packets only, so after any tail-drop the
        # arrival and ring sequence spaces diverge permanently
        first_ring_seq = self.ring.tail_seq - accepted
        while seq < end_seq:
            offset = seq - first_seq
            if offset < accepted:
                # +1: arrivals are in (t0, t1]; position idx of n arrivals
                ts = t0 + span * (offset + 1) // n
                # trace-driven sources dictate their own flow keys
                # (RSS / FloWatcher fidelity); synthetic sources return
                # None and fall back to the FlowSet hash
                flow = self.process.flow_of(seq)
                if flow is None:
                    header = self.flows.header_for(seq)
                else:
                    header = self.flows.header_of_flow(
                        flow % self.flows.num_flows)
                self._tagged.append(
                    TaggedPacket(seq, ts, header,
                                 ring_seq=first_ring_seq + offset)
                )
            else:
                self.tagged_drops += 1
            seq += k

    # ------------------------------------------------------------------ #

    def rx_burst(self, burst: int = config.RX_BURST) -> Tuple[int, List[TaggedPacket]]:
        """DPDK rx_burst: returns (#packets, tagged packets among them)."""
        self.sync()
        got = self.ring.pop(burst)
        if got == 0:
            return 0, []
        head = self.ring.head_seq
        tagged: List[TaggedPacket] = []
        dq = self._tagged
        now = self.sim.now
        while dq and dq[0].ring_seq < head:
            pkt = dq.popleft()
            pkt.retrieved_ns = now
            tagged.append(pkt)
        return got, tagged

    def occupancy(self) -> int:
        """Ring occupancy after materializing pending arrivals."""
        self.sync()
        return self.ring.occupancy

    def head_age_ns(self) -> int:
        """Age of the oldest *sampled* packet still waiting in the ring.

        The starvation watchdog's head-of-line measure: how long the
        queue has gone unserved while holding traffic.  Resolution is
        the tagging stride (``sample_every`` packets), so at low rates
        the estimate lags true head age by up to one stride's
        inter-arrival time; 0 when no sampled packet is waiting.
        """
        self.sync()
        if not self._tagged:
            return 0
        return max(0, self.sim.now - self._tagged[0].arrival_ns)

    def snapshot_state(self) -> dict:
        """Checkpoint fingerprint of queue + ring + arrival process.

        Deliberately does **not** call :meth:`sync`: materializing the
        pending interval here would split the tag interpolation at the
        snapshot time and change downstream latency samples — the
        capture must be a pure read.  Two replays that agree on
        ``process.last_t`` and the counters below have materialized
        exactly the same arrivals.
        """
        state = {
            "index": self.index,
            "process_last_t": self.process.last_t,
            "arrived_total": self.arrived_total,
            "tagged_drops": self.tagged_drops,
            "tagged_waiting": len(self._tagged),
            "ring": {
                "head_seq": self.ring.head_seq,
                "tail_seq": self.ring.tail_seq,
                "drops": self.ring.drops,
                "occupancy": self.ring.occupancy,
            },
        }
        # processes carrying their own replay/overlay cursors contribute
        # them; only added when defined so legacy captures keep their
        # exact component layout
        extra = getattr(self.process, "snapshot_state", None)
        if extra is not None:
            state["process"] = extra()
        return state

    @property
    def drops(self) -> int:
        return self.ring.drops

    def next_arrival_after(self, t: int) -> Optional[int]:
        return self.process.next_arrival_after(t)

    def loss_fraction(self) -> float:
        """Dropped / offered, over the whole run so far."""
        if self.arrived_total == 0:
            return 0.0
        return self.ring.drops / self.arrived_total
