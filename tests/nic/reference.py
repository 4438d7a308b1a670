"""Slow references for the NIC's set-up and poll-path fast paths.

* :class:`EagerFlowSet` — the flow population
  :class:`repro.nic.flows.FlowSet` replaced: it builds every header up
  front into a list and scans them all for the route table's
  destinations.  ``tests/nic/test_flows_reference.py`` pins the
  on-first-use population against it.
* :func:`hash_ipv4_tuple`, :func:`hash_ipv4_only` and :func:`queue_for`
  — RSS steering through the per-bit
  :func:`repro.nic.rss.toeplitz_hash`, which ``RssSteering``'s table
  lookups replaced.
* :class:`PropertyRing` and :func:`next_wakeup` — the poll path as it
  read before its bookkeeping became local integer arithmetic: ring
  ``offer``/``pop`` through the ``free``/``occupancy`` properties, and
  the lcore's pacing query over a candidate list.
  ``tests/nic/test_poll_path_reference.py`` pins each fast path against
  them.
* :class:`ScanRampProfile` and :class:`ScanOnOffProcess` — piecewise
  rates with every segment lookup a scan from the first segment, and
  ON/OFF trimming one ``pop(0)`` at a time, as they read before the
  bisect lookups.  ``tests/nic/test_ramp_reference.py`` pins
  ``RampProfile`` and ``OnOffProcess`` against them.

Kept as :class:`repro.sim.reference.HeapSimulator` pins the event
core.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dpdk.lcore import IDLE_SPIN_NS, TX_DRAIN_NS, PollModeLcore
from repro.nic.flows import _mix
from repro.nic.packet import PacketHeader, ipv4
from repro.nic.ring import DescriptorRing
from repro.nic.rss import MICROSOFT_KEY, RssSteering, toeplitz_hash
from repro.nic.traffic import OnOffProcess, RampProfile


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


class PropertyRing(DescriptorRing):
    """``DescriptorRing`` with ``offer``/``pop`` read through properties."""

    def offer(self, n: int) -> int:
        if n < 0:
            raise ValueError("negative packet count")
        accepted = min(n, self.free)
        self.tail_seq += accepted
        self.drops += n - accepted
        if self.occupancy > self.max_occupancy:
            self.max_occupancy = self.occupancy
        return accepted

    def pop(self, n: int) -> int:
        if n < 0:
            raise ValueError("negative burst")
        got = min(n, self.occupancy)
        self.head_seq += got
        return got


def next_wakeup(lcore: PollModeLcore, now: int, needed: int) -> int:
    """``PollModeLcore._next_wakeup`` over a candidate list."""
    candidates = []
    for queue in lcore.queues:
        when = queue.process.time_for_count(now, needed)
        if when is not None:
            candidates.append(when)
    if any(tx.pending for tx in lcore.tx_buffers):
        candidates.append(lcore._last_drain + TX_DRAIN_NS)
    if not candidates:
        return now + IDLE_SPIN_NS
    return max(now, min(candidates))


class _ScanLookups:
    """Segment lookups that scan from the first segment."""

    def _next_start(self, t: int) -> Optional[int]:
        for start, _rate in self.segments:
            if start > t:
                return start
        return None

    def _segment_rate(self, t: int) -> int:
        rate = 0
        for start, seg_rate in self.segments:
            if t >= start:
                rate = seg_rate
            else:
                break
        return rate

    def _iter_pieces(self, t0: int, t1: int):
        boundaries = [s for s, _ in self.segments if t0 < s < t1]
        edges = [t0] + boundaries + [t1]
        for a, b in zip(edges, edges[1:]):
            yield a, b, self._segment_rate(a)


class ScanRampProfile(_ScanLookups, RampProfile):
    """``RampProfile`` with scanning lookups."""


class ScanOnOffProcess(_ScanLookups, OnOffProcess):
    """``OnOffProcess`` with scanning lookups and one-by-one trimming."""

    def _next_start(self, t: int) -> Optional[int]:
        # OnOffProcess's draws, then the scan
        while self.segments[-1][0] <= t:
            self._extend_to(self.segments[-1][0] + 1)
        return _ScanLookups._next_start(self, t)

    def advance(self, t1: int) -> int:
        n = RampProfile.advance(self, t1)
        segments = self.segments
        while len(segments) > 1 and segments[1][0] <= self.last_t:
            segments.pop(0)
        return n
