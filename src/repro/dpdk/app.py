"""The packet-application interface.

An application contributes two things to the simulation:

* a constant **per-packet CPU cost** (``per_packet_ns``), which sets the
  retrieval rate μ — constant and size-independent, exactly the paper's
  Appendix B assumption about DPDK descriptor processing;
* **real work on tagged packets** (``handle``): the sampled subset flows
  through the genuine data structures (LPM trie, AES-CBC, flow table),
  so functional correctness is continuously exercised while the cost
  model keeps line rate simulable.

The same interface serves the static DPDK lcore, Metronome threads and
the XDP driver, guaranteeing the baselines compare identical workloads.
"""

from __future__ import annotations

from typing import List

from repro import config
from repro.nic.packet import TaggedPacket


class PacketApp:
    """Base class for packet-processing applications."""

    #: report name
    name = "app"
    #: constant per-packet processing cost (ns at base frequency)
    per_packet_ns = config.L3FWD_PKT_NS

    def handle(self, tagged: List[TaggedPacket]) -> None:
        """Process the sampled packets (real data-structure work).

        The receivers (the lcore, Metronome, XDP) call it only for a
        burst that carried tagged packets, so ``tagged`` is never
        empty there; every shipped app does nothing on an empty list.
        """

    def batch_cost_ns(self, n: int) -> int:
        """CPU cost of receiving+processing+enqueueing a burst of ``n``."""
        if n <= 0:
            return 0
        return n * (self.per_packet_ns + config.TX_PKT_NS)

    def stats(self) -> dict:
        """Application-level counters for reports."""
        return {}


class CountingApp(PacketApp):
    """A minimal app for tests: counts packets and tagged packets."""

    name = "counting"

    def __init__(self, per_packet_ns: int = config.L3FWD_PKT_NS):
        self.per_packet_ns = per_packet_ns
        self.tagged_seen = 0

    def handle(self, tagged: List[TaggedPacket]) -> None:
        self.tagged_seen += len(tagged)

    def stats(self) -> dict:
        return {"tagged_seen": self.tagged_seen}
