"""The NIC port: a set of Rx queues (RSS) plus interrupt support.

Poll-mode users (DPDK, Metronome) simply call ``rx_burst`` on queues.
The XDP baseline additionally uses :meth:`NicPort.irq_arm`: when
interrupts are enabled for a queue, the NIC raises the line as soon as
the next packet hits the wire (interrupt-mitigation pacing is layered on
top by :mod:`repro.xdp.driver`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro import config
from repro.nic.flows import FlowSet
from repro.nic.rxqueue import RxQueue
from repro.nic.traffic import ArrivalProcess
from repro.sim.core import Handle, Simulator


class NicPort:
    """One physical port with ``len(processes)`` RSS receive queues."""

    def __init__(
        self,
        sim: Simulator,
        processes: List[ArrivalProcess],
        flows: Optional[FlowSet] = None,
        ring_size: int = config.DEFAULT_RX_RING,
        sample_every: int = config.LATENCY_SAMPLE_EVERY,
        queue_nodes: Optional[List[int]] = None,
    ):
        if not processes:
            raise ValueError("a port needs at least one queue")
        if queue_nodes is not None and len(queue_nodes) != len(processes):
            raise ValueError(
                f"queue_nodes has {len(queue_nodes)} entries for "
                f"{len(processes)} queues"
            )
        self.sim = sim
        self.flows = flows or FlowSet()
        self.queues: List[RxQueue] = [
            RxQueue(
                sim,
                proc,
                flows=self.flows,
                ring_size=ring_size,
                sample_every=sample_every,
                index=i,
                node=0 if queue_nodes is None else queue_nodes[i],
            )
            for i, proc in enumerate(processes)
        ]
        #: queue_index -> (due time, arm order, callback) for armed IRQs
        self._irq_pending: dict = {}
        self._irq_arm_seq = 0
        #: the single scheduled drain event covering all armed queues
        self._irq_batch: Optional[Handle] = None
        self._irq_batch_when = 0
        ports = getattr(sim, "nic_ports", None)
        if ports is not None:
            ports.append(self)

    # ------------------------------------------------------------------ #

    def irq_arm(self, queue_index: int, callback: Callable[[], None]) -> bool:
        """Enable the Rx interrupt for a queue.

        Fires ``callback`` at the next packet arrival (one-shot, like an
        MSI-X Rx interrupt with auto-mask).  Returns False if the traffic
        source is finished and no interrupt will ever fire.

        All queues of the port share one scheduled drain event at the
        earliest pending due time (re-armed only when a new arm moves
        that minimum earlier), so N concurrently-armed queues cost one
        calendar insertion instead of N.
        """
        pending = self._irq_pending
        pending.pop(queue_index, None)
        queue = self.queues[queue_index]
        queue.sync()
        when = queue.next_arrival_after(self.sim.now)
        if when is None:
            if not pending and self._irq_batch is not None:
                self._irq_batch.cancel()
                self._irq_batch = None
            return False
        self._irq_arm_seq += 1
        pending[queue_index] = (when, self._irq_arm_seq, callback)
        if self._irq_batch is None or when < self._irq_batch_when:
            if self._irq_batch is not None:
                self._irq_batch.cancel()
            self._irq_batch_when = when
            self._irq_batch = self.sim.call_at(when, self._drain_irqs)
        return True

    def _drain_irqs(self) -> None:
        now = self.sim.now
        self._irq_batch = None
        pending = self._irq_pending
        due = sorted(
            (seq, qi, cb)
            for qi, (when, seq, cb) in pending.items()
            if when <= now
        )
        for _, qi, _ in due:
            del pending[qi]
        if pending:
            nxt = min(entry[0] for entry in pending.values())
            self._irq_batch_when = nxt
            self._irq_batch = self.sim.call_at(nxt, self._drain_irqs)
        # deliver in arm order (the order the per-queue events fired in
        # before batching); callbacks may re-arm, which is safe because
        # the drain state above is already settled
        for _, _, cb in due:
            cb()

    # ------------------------------------------------------------------ #

    def snapshot_state(self) -> dict:
        """Checkpoint fingerprint of the IRQ machinery (pure read)."""
        return {
            "irq_pending": sorted(
                [qi, when, seq]
                for qi, (when, seq, _cb) in self._irq_pending.items()
            ),
            "irq_arm_seq": self._irq_arm_seq,
            "irq_batch_when": (
                self._irq_batch_when if self._irq_batch is not None else None
            ),
        }

    def total_drops(self) -> int:
        return sum(q.drops for q in self.queues)

    def total_arrived(self) -> int:
        """Offered load so far (materializes pending arrivals first)."""
        for q in self.queues:
            q.sync()
        return sum(q.arrived_total for q in self.queues)

    def loss_fraction(self) -> float:
        arrived = self.total_arrived()
        if arrived == 0:
            return 0.0
        return self.total_drops() / arrived
