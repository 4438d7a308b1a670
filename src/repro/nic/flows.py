"""Synthetic flow populations.

A :class:`FlowSet` deterministically maps a packet's sequence number to
one of N flows, so tagged packets get stable, reproducible headers
without storing per-packet state.  The mapping uses a multiplicative
hash: successive packets spread across flows the way an IXIA/MoonGen
profile with randomized tuples would.

A header is a pure function of its flow index, so each is built the
first time a run asks for it and kept: a run that tags packets from a
few hundred flows never builds the rest of the population.
"""

from __future__ import annotations

import operator
from typing import List, Optional

from repro.nic.packet import PacketHeader, ipv4

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _dst_net(prefix: int) -> int:
    """The destination /24 network of prefix index ``prefix``."""
    return ipv4(192, prefix & 255, (prefix * 37) & 255, 0)


def _mix(x: int) -> int:
    """SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class FlowSet:
    """A population of ``num_flows`` UDP flows with synthesized 5-tuples.

    Destination addresses are drawn from ``num_prefixes`` /24 subnets so
    l3fwd's LPM table has realistic route diversity.
    """

    def __init__(
        self,
        num_flows: int = 1024,
        num_prefixes: int = 64,
        pkt_len: int = 64,
        seed: int = 1,
    ):
        if num_flows <= 0:
            raise ValueError("num_flows must be positive")
        self.num_flows = num_flows
        self.num_prefixes = max(1, num_prefixes)
        self.pkt_len = pkt_len
        self.seed = seed
        #: flow index -> its header, filled on first use
        self._headers: List[Optional[PacketHeader]] = [None] * num_flows

    def _make_header(self, flow_id: int) -> PacketHeader:
        h = _mix(flow_id * 2654435761 + self.seed)
        prefix = flow_id % self.num_prefixes
        # sources in 10/8; each destination /24 is a function of the
        # prefix index alone, so the population spans exactly
        # num_prefixes routable subnets
        src = ipv4(10, (h >> 8) & 255, (h >> 16) & 255, (h >> 24) & 255)
        dst = _dst_net(prefix) | ((h >> 40) & 255)
        sport = 1024 + ((h >> 48) & 0x3FFF)
        dport = 1024 + ((h >> 52) & 0x3FFF)
        return PacketHeader(src, dst, sport, dport, proto=17, length=self.pkt_len)

    def flow_of(self, seq: int) -> int:
        """Deterministic flow id for a packet sequence number."""
        return _mix(seq ^ (self.seed << 32)) % self.num_flows

    def header_for(self, seq: int) -> PacketHeader:
        """Header carried by packet ``seq``."""
        return self.header_of_flow(self.flow_of(seq))

    def header_of_flow(self, flow_id: int) -> PacketHeader:
        """Header of a specific flow (for table setup and assertions).

        Indexes like a list of every header: a negative index counts
        from the end, one past it raises :exc:`IndexError`.
        """
        header = self._headers[flow_id]
        if header is None:
            # a Python int: _mix on a numpy integer would overflow
            i = operator.index(flow_id) % self.num_flows
            header = self._headers[i] = self._make_header(i)
        return header

    def all_destinations(self) -> List[int]:
        """Distinct destination /24 network addresses across the set.

        Flow ``i`` routes to prefix ``i % num_prefixes``, so the set
        spans the first ``min(num_flows, num_prefixes)`` prefixes.
        """
        nets = map(_dst_net, range(min(self.num_flows, self.num_prefixes)))
        return sorted(set(nets))
