"""The classic DPDK polling lcore (paper Listing 1).

An lcore exclusively owns its Rx queues and scans them in an infinite
loop, burst after burst, whether or not traffic is arriving — the
behaviour responsible for the constant 100% CPU utilization Metronome
attacks.

Simulation note: per-poll events at 10 Gbps would be fine, but an *idle*
poller would generate one event per empty poll forever.  When a full
scan finds every queue empty, the loop busy-spins (still consuming CPU,
still preemptible) directly to the next packet arrival — see DESIGN.md
§4 "empty-poll fast-forward".
"""

from __future__ import annotations

from typing import List, Optional

from repro import config
from repro.dpdk.app import PacketApp
from repro.kernel.machine import Machine
from repro.kernel.thread import BusySpin, Compute, KThread
from repro.metrics.latency import LatencyStats
from repro.nic.rxqueue import RxQueue
from repro.nic.txqueue import TxBuffer
from repro.sim.units import MS, US

#: stale-Tx drain interval used by DPDK sample apps (BURST_TX_DRAIN_US)
TX_DRAIN_NS = 100 * US
#: bounded idle spin when no traffic source has a next arrival
IDLE_SPIN_NS = 10 * MS


class PollModeLcore:
    """One statically polling DPDK thread bound to a set of Rx queues.

    Burst size and Tx batch come from the machine's ``SimConfig``
    (``rx_burst``, ``tx_batch``); every tagged packet's latency lands
    in :attr:`latency`.
    """

    def __init__(
        self,
        machine: Machine,
        queues: List[RxQueue],
        app: PacketApp,
        core: int = 0,
        nice: int = 0,
        name: str = "dpdk-lcore",
    ):
        if not queues:
            raise ValueError("an lcore needs at least one queue")
        self.machine = machine
        self.queues = queues
        self.app = app
        self.burst = machine.cfg.rx_burst
        self.tx_buffers = [
            TxBuffer(machine.sim, batch_threshold=machine.cfg.tx_batch)
            for _ in queues
        ]
        self.latency = LatencyStats()
        for txbuf in self.tx_buffers:
            txbuf.on_tx = lambda pkt: self.latency.add(pkt.latency_ns)
        self.core = core
        self.nice = nice
        self.name = name
        self.polls = 0
        self.rx_packets = 0
        self._last_drain = 0
        self.thread: Optional[KThread] = None

    def start(self) -> KThread:
        """Spawn the polling thread."""
        self.thread = self.machine.spawn(
            self._body, name=self.name, nice=self.nice, core=self.core
        )
        return self.thread

    @property
    def cores(self) -> List[int]:
        return [self.core]

    @property
    def total_packets(self) -> int:
        return self.rx_packets

    # ------------------------------------------------------------------ #

    def _body(self, kt: KThread):
        """The while(1) loop of Listing 1.

        Event-efficiency notes (behaviour-preserving, see DESIGN.md §4):
        the receive/process/enqueue costs of a burst are charged as a
        single Compute, and when a scan finds fewer packets than
        ``min_accum`` the loop busy-spins (full CPU, preemptible) to the
        instant enough packets accumulate — collapsing the sub-100 ns
        empty-poll churn a faster-than-wire poller produces into one
        event, at a sub-microsecond pacing granularity.
        """
        sim = self.machine.sim
        pairs = list(zip(self.queues, self.tx_buffers))
        min_accum = min(8, self.burst)
        while True:
            got = 0
            for queue, txbuf in pairs:
                n, tagged = queue.rx_burst(self.burst)
                self.polls += 1
                if n == 0:
                    yield Compute(config.RX_POLL_EMPTY_NS)
                    continue
                got += n
                self.rx_packets += n
                will_flush = txbuf.pending + n >= txbuf.batch_threshold
                cost = config.RX_BURST_FIXED_NS + self.app.batch_cost_ns(n)
                if will_flush:
                    cost += config.TX_FLUSH_NS
                yield Compute(cost)
                if tagged:
                    self.app.handle(tagged)
                txbuf.enqueue(n, tagged)

            now = sim.now
            if now - self._last_drain >= TX_DRAIN_NS:
                self._last_drain = now
                for _queue, txbuf in pairs:
                    if txbuf.pending:
                        txbuf.flush()
                        yield Compute(config.TX_FLUSH_NS)

            if got < min_accum:
                # thin scan: spin forward until a fuller burst is waiting
                target = self._next_wakeup(sim.now, min_accum - got)
                if target > sim.now:
                    yield BusySpin(target)

    def _next_wakeup(self, now: int, needed: int) -> int:
        """The earliest of each queue's ``needed``-th next arrival and,
        with Tx packets pending, the next drain; never before ``now``."""
        best = None
        for queue in self.queues:
            when = queue.process.time_for_count(now, needed)
            if when is not None and (best is None or when < best):
                best = when
        for tx in self.tx_buffers:
            if tx.pending:
                drain = self._last_drain + TX_DRAIN_NS
                if best is None or drain < best:
                    best = drain
                break
        if best is None:
            return now + IDLE_SPIN_NS
        return best if best > now else now
