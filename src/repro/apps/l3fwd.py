"""The L3 forwarder (DPDK's l3fwd sample, LPM mode).

The paper's workhorse application (§5.7): every packet's destination is
looked up in the LPM table, its MAC/TTL rewritten, and the packet sent
on the matching port.  We run real lookups on the tagged subset and
verify the result against the reference trie — misrouting is counted,
so a broken table would fail the experiments, not silently pass.
"""

from __future__ import annotations

from typing import List, Optional

from repro import config
from repro.apps.lpm import Dir24_8, LpmTrie
from repro.dpdk.app import PacketApp
from repro.nic import ipv4hdr
from repro.nic.flows import FlowSet
from repro.nic.packet import TaggedPacket


class L3FwdApp(PacketApp):
    """Longest-prefix-match forwarder."""

    name = "l3fwd"
    per_packet_ns = config.L3FWD_PKT_NS

    def __init__(
        self,
        flows: Optional[FlowSet] = None,
        num_ports: int = 2,
        first_bits: int = 16,
    ):
        self.trie = LpmTrie()
        self.num_ports = max(1, num_ports)
        self.lookups = 0
        self.misses = 0
        self.ttl_expired = 0
        self.forwarded = [0] * self.num_ports
        self._hdr_cache: dict = {}
        if flows is not None:
            self.populate_from_flows(flows)
        self.table = Dir24_8.from_trie(self.trie, first_bits=first_bits)

    def populate_from_flows(self, flows: FlowSet) -> None:
        """Install one /24 route per destination subnet (like l3fwd's
        route array), spreading next hops across ports."""
        for i, net in enumerate(flows.all_destinations()):
            self.trie.insert(net, 24, i % self.num_ports)

    def add_route(self, addr: int, depth: int, port: int) -> None:
        """Install a route in both the trie and the compiled table."""
        self.trie.insert(addr, depth, port)
        self.table.insert(addr, depth, port)

    def handle(self, tagged: List[TaggedPacket]) -> None:
        cache = self._hdr_cache
        for pkt in tagged:
            self.lookups += 1
            port = self.table.lookup(pkt.header.dst_ip)
            if port is None:
                self.misses += 1
                continue
            # real forwarding work: build (cached per flow), verify,
            # TTL-decrement with incremental checksum (RFC 1624)
            raw = cache.get(pkt.header.flow_key)
            if raw is None:
                raw = ipv4hdr.build_header(pkt.header)
                cache[pkt.header.flow_key] = raw
            rewritten, alive = ipv4hdr.forward_rewrite(raw)
            if not alive or not ipv4hdr.verify(rewritten):
                self.ttl_expired += 1
                continue
            self.forwarded[port] += 1

    def stats(self) -> dict:
        return {
            "lookups": self.lookups,
            "misses": self.misses,
            "ttl_expired": self.ttl_expired,
            "forwarded": list(self.forwarded),
            "routes": self.table.size,
        }
