"""FloWatcher-DPDK: per-packet and per-flow traffic statistics (§5.7).

FloWatcher (Zhang et al., TNSM 2019) is a software traffic monitor with
tunable statistics granularity.  We implement its run-to-completion
mode: the receiving thread itself maintains

* exact per-flow packet counters (hash table on the 5-tuple),
* a count-min sketch (the memory-bounded alternative FloWatcher offers),
* flow-size distribution summaries (heavy hitters, percentiles).

Tagged packets update both structures; tests cross-validate sketch
estimates against the exact table (the sketch may only over-estimate).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from repro import config
from repro.dpdk.app import PacketApp
from repro.nic.packet import TaggedPacket

_MASK64 = (1 << 64) - 1


def _hash64(key: Tuple, salt: int) -> int:
    """Deterministic 64-bit hash of a flow key (FNV-1a over the fields).

    Fields are normally ints (the 5-tuple); other hashable values are
    folded in through their UTF-8 representation so the sketch stays
    usable with arbitrary keys.
    """
    h = (0xCBF29CE484222325 ^ salt) & _MASK64
    for part in key:
        if not isinstance(part, int):
            part = int.from_bytes(
                hashlib.blake2b(str(part).encode(), digest_size=8).digest(),
                "little",
            )
        h ^= part & _MASK64
        h = (h * 0x100000001B3) & _MASK64
    # FNV has no avalanche: without a finalizer, keys differing only in
    # bits above log2(width) would collide in *every* row.  SplitMix64
    # finalizer fixes the bucket distribution.
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


class CountMinSketch:
    """Count-min sketch: ``depth`` rows of ``width`` counters."""

    def __init__(self, width: int = 2048, depth: int = 4):
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        self.width = width
        self.depth = depth
        self._rows: List[List[int]] = [[0] * width for _ in range(depth)]
        self.total = 0

    def add(self, key: Tuple, count: int = 1) -> None:
        if count < 0:
            raise ValueError("negative count")
        self.total += count
        for d in range(self.depth):
            self._rows[d][_hash64(key, d) % self.width] += count

    def estimate(self, key: Tuple) -> int:
        """Point estimate; never below the true count."""
        return min(
            self._rows[d][_hash64(key, d) % self.width]
            for d in range(self.depth)
        )


class FloWatcherApp(PacketApp):
    """Run-to-completion traffic monitor."""

    name = "flowatcher"
    per_packet_ns = config.FLOWATCHER_PKT_NS

    def __init__(self, sketch_width: int = 2048, sketch_depth: int = 4):
        self.flow_table: Dict[Tuple, int] = {}
        self.sketch = CountMinSketch(sketch_width, sketch_depth)
        self.packets = 0
        self.bytes = 0

    def handle(self, tagged: List[TaggedPacket]) -> None:
        table = self.flow_table
        for pkt in tagged:
            key = pkt.header.flow_key
            table[key] = table.get(key, 0) + 1
            self.sketch.add(key)
            self.packets += 1
            self.bytes += pkt.header.length

    # ------------------------------------------------------------------ #
    # statistics queries
    # ------------------------------------------------------------------ #

    @property
    def flow_count(self) -> int:
        return len(self.flow_table)

    def top_flows(self, k: int = 10) -> List[Tuple[Tuple, int]]:
        """The k heaviest flows by exact count."""
        return sorted(self.flow_table.items(), key=lambda kv: -kv[1])[:k]

    def flow_size_percentile(self, p: float) -> float:
        """Percentile of the flow-size distribution (exact table)."""
        if not self.flow_table:
            raise ValueError("no flows observed")
        if not 0 <= p <= 100:
            raise ValueError("percentile outside [0, 100]")
        sizes = sorted(self.flow_table.values())
        rank = (len(sizes) - 1) * p / 100.0
        lo = int(rank)
        hi = min(lo + 1, len(sizes) - 1)
        frac = rank - lo
        return sizes[lo] * (1 - frac) + sizes[hi] * frac

    def sketch_error(self, key: Tuple) -> int:
        """Sketch overestimate for a flow (0 = exact)."""
        return self.sketch.estimate(key) - self.flow_table.get(key, 0)

    def stats(self) -> dict:
        return {
            "packets": self.packets,
            "flows": self.flow_count,
            "bytes": self.bytes,
        }
