"""The transmit buffer with DPDK-style batching.

DPDK applications enqueue outgoing packets into a software buffer that
is flushed to the Tx ring only when a batch threshold is reached
(``rte_eth_tx_buffer``).  Paper §5.4 observes that with Metronome's
vacations a sub-threshold residue can sit in the buffer across a sleep,
inflating low-rate latency variance — and that setting the threshold to
1 removes the effect for a 2-3% CPU cost.  This model reproduces that:
tagged packets receive their ``tx_ns`` stamp at *flush* time, not at
enqueue time.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro import config
from repro.nic.packet import TaggedPacket
from repro.sim.core import Simulator


class TxBuffer:
    """Software Tx batching buffer for one port."""

    def __init__(
        self,
        sim: Simulator,
        batch_threshold: int = config.DEFAULT_TX_BATCH,
        on_tx: Optional[Callable[[TaggedPacket], None]] = None,
        latency_floor_ns: int = config.HW_LATENCY_FLOOR_NS,
    ):
        if batch_threshold < 1:
            raise ValueError("batch threshold must be >= 1")
        self.sim = sim
        self.batch_threshold = batch_threshold
        self.on_tx = on_tx
        #: optional hook fired at flush with the packet count (mbuf
        #: return path, accounting, ...)
        self.on_flush = None
        #: hardware measurement-path floor added to every tx stamp
        #: (NIC pipelines + PCIe + generator timestamping; see config)
        self.latency_floor_ns = latency_floor_ns
        #: packets enqueued since the last flush (receivers read it to
        #: tell whether a burst will flush; only this class writes it)
        self.pending = 0
        self._pending_tagged: List[TaggedPacket] = []
        self.tx_total = 0
        self.flushes = 0

    def enqueue(self, count: int, tagged: List[TaggedPacket]) -> bool:
        """Add ``count`` packets (with their tagged subset) to the buffer.

        Returns True if the threshold was crossed and a flush happened.
        """
        if count < 0:
            raise ValueError("negative count")
        pending = self.pending = self.pending + count
        if tagged:
            self._pending_tagged.extend(tagged)
        if pending >= self.batch_threshold:
            self.flush()
            return True
        return False

    def flush(self) -> int:
        """Transmit everything pending; stamps tagged packets now."""
        sent = self.pending
        if sent == 0:
            return 0
        now = self.sim.now + self.latency_floor_ns
        for pkt in self._pending_tagged:
            pkt.tx_ns = now
            if self.on_tx is not None:
                self.on_tx(pkt)
        self.tx_total += sent
        self.flushes += 1
        self.pending = 0
        self._pending_tagged = []
        if self.on_flush is not None:
            self.on_flush(sent)
        return sent
