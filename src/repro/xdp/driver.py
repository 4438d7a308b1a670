"""An interrupt-driven NAPI/XDP receive path (paper §5.5).

Model of ``xdp_router_ipv4`` on an ixgbe NIC:

* every Rx queue is bound 1:1 to a core (XDP's deployment constraint the
  paper discusses — scaling up queues needs an explicit ethtool step);
* the NIC raises an Rx interrupt when a packet arrives and interrupts
  are enabled, moderated to at most one interrupt per ITR interval;
* the interrupt costs housekeeping time (context save, dispatch to the
  softirq) and wakes the NAPI poll thread;
* the poll thread drains up to ``NAPI_BUDGET`` packets per poll; if it
  used the whole budget it stays in *polling mode* (no interrupt per
  packet — the livelock protection of NAPI), otherwise it re-enables the
  interrupt and sleeps;
* after an idle spell the buffer page pool is cold: the first packets
  pay the allocator path, which is what makes XDP "lose some tens of
  thousands of packets" on a cold line-rate burst before adapting.

CPU proportionality is the point: with no traffic the driver consumes
exactly zero CPU, at high rates the per-packet and per-interrupt
overheads exceed DPDK's — both ends of Figure 12b.
"""

from __future__ import annotations

from typing import List, Optional

from repro import config
from repro.dpdk.app import PacketApp
from repro.kernel.machine import Machine
from repro.kernel.thread import Compute, KThread, Suspend
from repro.metrics.latency import LatencyStats
from repro.nic.device import NicPort
from repro.nic.txqueue import TxBuffer


class XdpQueueDriver:
    """NAPI state machine for one Rx queue on its dedicated core."""

    def __init__(
        self,
        machine: Machine,
        port: NicPort,
        queue_index: int,
        app: PacketApp,
        core: int,
        latency: Optional[LatencyStats] = None,
        itr_ns: int = config.XDP_ITR_NS,
    ):
        self.machine = machine
        self.port = port
        self.queue = port.queues[queue_index]
        self.queue_index = queue_index
        self.app = app
        self.core = core
        self.itr_ns = itr_ns
        self.name = f"xdp-q{queue_index}"
        # XDP transmits immediately (no tx batching in xdp_router_ipv4)
        self.txbuf = TxBuffer(machine.sim, batch_threshold=1)
        if latency is not None:
            self.txbuf.on_tx = lambda pkt: latency.add(pkt.latency_ns)
        self.irqs = 0
        self.polls = 0
        self.packets = 0
        self._last_irq_ns = -(10 ** 12)
        self._last_active_ns = 0
        self._warm_remaining = config.XDP_WARM_PKTS
        self.thread: Optional[KThread] = None

    # ------------------------------------------------------------------ #

    def start(self) -> KThread:
        self.thread = self.machine.spawn(
            self._body, name=self.name, core=self.core
        )
        self._arm()
        return self.thread

    def _arm(self) -> None:
        # re-enabling the interrupt with descriptors already pending
        # asserts the line immediately (hardware level-trigger semantics)
        self.queue.sync()
        if self.queue.ring.occupancy > 0:
            self.machine.sim.call_after(0, self._on_packet)
            return
        self.port.irq_arm(self.queue_index, self._on_packet)

    def _on_packet(self) -> None:
        """NIC saw a packet with interrupts enabled: moderate + deliver."""
        now = self.machine.sim.now
        earliest = self._last_irq_ns + self.itr_ns
        if now < earliest:
            self.machine.sim.call_at(earliest, self._deliver_irq)
        else:
            self._deliver_irq()

    def _deliver_irq(self) -> None:
        now = self.machine.sim.now
        self._last_irq_ns = now
        self.irqs += 1
        core = self.machine.cores[self.core]
        core.inject_irq_time(config.XDP_IRQ_NS)
        self.machine.sim.call_after(config.XDP_IRQ_NS, self._wake_thread)

    def _wake_thread(self) -> None:
        scheduler = self.machine.scheduler
        if self.thread is not None:
            # only settle_idle follows: a tail-position wake
            scheduler.wake(self.thread, tail=True)
        scheduler.settle_idle(self.machine.cores[self.core])

    # ------------------------------------------------------------------ #

    def _warm_cost_ns(self, n: int) -> int:
        """Per-batch processing cost including the cold page-pool path."""
        base = self.app.per_packet_ns
        cold = min(n, self._warm_remaining)
        self._warm_remaining -= cold
        warm_extra = int(cold * base * (config.XDP_WARM_FACTOR - 1.0))
        return n * base + warm_extra + config.RX_BURST_FIXED_NS

    def _body(self, kt: KThread):
        sim = self.machine.sim
        budget = config.NAPI_BUDGET
        while True:
            yield Suspend()
            # softirq context entered; poll until the queue runs dry
            idle_gap = sim.now - self._last_active_ns
            if idle_gap > config.XDP_COLD_IDLE_NS:
                self._warm_remaining = config.XDP_WARM_PKTS
            while True:
                self.polls += 1
                n, tagged = self.queue.rx_burst(budget)
                if n == 0:
                    break
                self.packets += n
                yield Compute(self._warm_cost_ns(n))
                if tagged:
                    self.app.handle(tagged)
                self.txbuf.enqueue(n, tagged)
                if n < budget:
                    break
                # used the full budget: stay in polling mode but yield a
                # softirq bookkeeping cost between rounds
                yield Compute(config.RX_POLL_EMPTY_NS)
            self._last_active_ns = sim.now
            self._arm()

    # ------------------------------------------------------------------ #

    def cpu_time_ns(self) -> int:
        return self.thread.cputime_ns if self.thread else 0


class XdpDriver:
    """All queue drivers of one port (1 queue : 1 core)."""

    def __init__(
        self,
        machine: Machine,
        port: NicPort,
        app: PacketApp,
        cores: Optional[List[int]] = None,
        itr_ns: int = config.XDP_ITR_NS,
    ):
        nq = len(port.queues)
        self.machine = machine
        self.port = port
        self.cores = cores if cores is not None else list(range(nq))
        if len(self.cores) != nq:
            raise ValueError("XDP requires one core per queue")
        self.latency = LatencyStats()
        self.queues: List[XdpQueueDriver] = [
            XdpQueueDriver(
                machine, port, i, app, core=self.cores[i],
                latency=self.latency, itr_ns=itr_ns,
            )
            for i in range(nq)
        ]

    def start(self) -> None:
        for q in self.queues:
            q.start()

    @property
    def total_packets(self) -> int:
        return sum(q.packets for q in self.queues)

    @property
    def total_irqs(self) -> int:
        return sum(q.irqs for q in self.queues)

    def cpu_utilization(self) -> float:
        """Busy fraction summed over the driver's cores (paper units)."""
        return self.machine.cpu_utilization(self.cores)
