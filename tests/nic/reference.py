"""Slow references for the NIC's set-up fast paths.

* :class:`EagerFlowSet` — the flow population
  :class:`repro.nic.flows.FlowSet` replaced: it builds every header up
  front into a list and scans them all for the route table's
  destinations.  ``tests/nic/test_flows_reference.py`` pins the
  on-first-use population against it.
* :func:`hash_ipv4_tuple`, :func:`hash_ipv4_only` and :func:`queue_for`
  — RSS steering through the per-bit
  :func:`repro.nic.rss.toeplitz_hash`, which ``RssSteering``'s table
  lookups replaced.

Kept as :class:`repro.sim.reference.HeapSimulator` pins the event
core.
"""

from __future__ import annotations

from typing import List

from repro.nic.flows import _mix
from repro.nic.packet import PacketHeader, ipv4
from repro.nic.rss import MICROSOFT_KEY, RssSteering, toeplitz_hash


class EagerFlowSet:
    """``FlowSet`` with every header built at construction."""

    def __init__(self, num_flows: int = 1024, num_prefixes: int = 64,
                 pkt_len: int = 64, seed: int = 1):
        if num_flows <= 0:
            raise ValueError("num_flows must be positive")
        self.num_flows = num_flows
        self.num_prefixes = max(1, num_prefixes)
        self.pkt_len = pkt_len
        self.seed = seed
        self._headers: List[PacketHeader] = [
            self._make_header(i) for i in range(num_flows)
        ]

    def _make_header(self, flow_id: int) -> PacketHeader:
        h = _mix(flow_id * 2654435761 + self.seed)
        prefix = flow_id % self.num_prefixes
        src = ipv4(10, (h >> 8) & 255, (h >> 16) & 255, (h >> 24) & 255)
        dst = ipv4(192, prefix & 255, (prefix * 37) & 255, (h >> 40) & 255)
        sport = 1024 + ((h >> 48) & 0x3FFF)
        dport = 1024 + ((h >> 52) & 0x3FFF)
        return PacketHeader(src, dst, sport, dport, proto=17,
                            length=self.pkt_len)

    def flow_of(self, seq: int) -> int:
        return _mix(seq ^ (self.seed << 32)) % self.num_flows

    def header_for(self, seq: int) -> PacketHeader:
        return self._headers[self.flow_of(seq)]

    def header_of_flow(self, flow_id: int) -> PacketHeader:
        return self._headers[flow_id]

    def all_destinations(self) -> List[int]:
        nets = {h.dst_ip & 0xFFFFFF00 for h in self._headers}
        return sorted(nets)


def hash_ipv4_tuple(src_ip: int, dst_ip: int, src_port: int, dst_port: int,
                    key: bytes = MICROSOFT_KEY) -> int:
    """RSS input for TCP/UDP over IPv4: src ip, dst ip, src port, dst
    port, big-endian concatenated (the Microsoft canonical layout)."""
    data = (src_ip.to_bytes(4, "big") + dst_ip.to_bytes(4, "big")
            + src_port.to_bytes(2, "big") + dst_port.to_bytes(2, "big"))
    return toeplitz_hash(key, data)


def hash_ipv4_only(src_ip: int, dst_ip: int,
                   key: bytes = MICROSOFT_KEY) -> int:
    """RSS input for non-TCP/UDP IPv4: addresses only."""
    return toeplitz_hash(key, src_ip.to_bytes(4, "big")
                         + dst_ip.to_bytes(4, "big"))


def queue_for(steering: RssSteering, header: PacketHeader) -> int:
    """``RssSteering.queue_for`` through the per-bit ``toeplitz_hash``."""
    if header.proto in (6, 17):
        h = hash_ipv4_tuple(header.src_ip, header.dst_ip, header.src_port,
                            header.dst_port, steering.key)
    else:
        h = hash_ipv4_only(header.src_ip, header.dst_ip, steering.key)
    return steering.table[h % len(steering.table)]
