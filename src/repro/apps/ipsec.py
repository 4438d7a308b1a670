"""The IPsec security gateway (DPDK ipsec-secgw sample, §5.7).

Outbound path: each packet is looked up in the Security Policy Database
(SPD, a prefix-based policy table), matched to a Security Association
(SA), ESP-encapsulated (SPI + sequence number + IV + padded ciphertext +
auth trailer) and sent on the unprotected port.

Tagged packets flow through the *real* pipeline — policy lookup, ESP
framing, genuine AES-128-CBC of a synthesized payload — and tests
round-trip them through :meth:`IpsecGatewayApp.decapsulate`.  The CPU
cost model charges the encap work but not the cipher, which the paper's
setup offloads to the NIC.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro import config
from repro.apps.aes import BLOCK_SIZE, AesCbc
from repro.apps.lpm import LpmTrie
from repro.dpdk.app import PacketApp
from repro.nic.packet import PacketHeader, TaggedPacket

ESP_HEADER = struct.Struct("!II")  # SPI, sequence number


class SecurityAssociation:
    """One ESP tunnel SA (cipher state + replay counter)."""

    def __init__(self, spi: int, key: bytes, tunnel_src: int, tunnel_dst: int):
        if not 0 < spi < 1 << 32:
            raise ValueError(f"bad SPI {spi}")
        self.spi = spi
        self.cipher = AesCbc(key)
        self.tunnel_src = tunnel_src
        self.tunnel_dst = tunnel_dst
        self.seq = 0

    def next_seq(self) -> int:
        self.seq += 1
        if self.seq >= 1 << 32:
            raise OverflowError("ESP sequence exhausted; rekey required")
        return self.seq


class IpsecGatewayApp(PacketApp):
    """Outbound ESP tunnel gateway."""

    name = "ipsec-secgw"
    per_packet_ns = config.IPSEC_PKT_NS

    def __init__(self, key: bytes = b"metronome-aescbc"):
        self.spd = LpmTrie()           # dst prefix -> SA index
        self.sas: List[SecurityAssociation] = []
        self._by_spi: Dict[int, SecurityAssociation] = {}
        self.default_sa: Optional[int] = None
        self.encapsulated = 0
        self.bypassed = 0
        self._default_key = key

    # ------------------------------------------------------------------ #
    # control plane
    # ------------------------------------------------------------------ #

    def add_sa(
        self,
        spi: int,
        key: Optional[bytes] = None,
        tunnel_src: int = 0x0A000001,
        tunnel_dst: int = 0xC0A80001,
    ) -> int:
        """Install an SA; returns its index for policy references."""
        if spi in self._by_spi:
            raise ValueError(f"duplicate SPI {spi}")
        sa = SecurityAssociation(spi, key or self._default_key, tunnel_src, tunnel_dst)
        self.sas.append(sa)
        self._by_spi[spi] = sa
        return len(self.sas) - 1

    def add_policy(self, addr: int, depth: int, sa_index: int) -> None:
        """Protect traffic to ``addr/depth`` with SA ``sa_index``."""
        if not 0 <= sa_index < len(self.sas):
            raise ValueError(f"no SA {sa_index}")
        self.spd.insert(addr, depth, sa_index)

    def protect_everything(self, spi: int = 5) -> None:
        """Convenience: one SA protecting 0.0.0.0/0 (the paper's test)."""
        idx = self.add_sa(spi)
        self.add_policy(0, 0, idx)

    # ------------------------------------------------------------------ #
    # data plane
    # ------------------------------------------------------------------ #

    @staticmethod
    def synth_payload(header: PacketHeader) -> bytes:
        """Deterministic payload standing in for the packet body."""
        return struct.pack(
            "!IIHHB",
            header.src_ip,
            header.dst_ip,
            header.src_port,
            header.dst_port,
            header.proto,
        ) + b"\x00" * max(0, header.length - 33)

    def _iv_for(self, sa: SecurityAssociation, seq: int) -> bytes:
        return struct.pack("!IIII", sa.spi, seq, sa.tunnel_src, sa.tunnel_dst)

    def encapsulate(self, header: PacketHeader) -> Optional[bytes]:
        """ESP-encapsulate one packet; None if no policy matches."""
        sa_index = self.spd.lookup(header.dst_ip)
        if sa_index is None:
            self.bypassed += 1
            return None
        sa = self.sas[sa_index]
        seq = sa.next_seq()
        iv = self._iv_for(sa, seq)
        ciphertext = sa.cipher.encrypt(self.synth_payload(header), iv)
        self.encapsulated += 1
        return ESP_HEADER.pack(sa.spi, seq) + iv + ciphertext

    def decapsulate(self, datagram: bytes) -> Tuple[int, bytes]:
        """Inverse of :meth:`encapsulate`: returns (SPI, plaintext)."""
        if len(datagram) < ESP_HEADER.size + BLOCK_SIZE:
            raise ValueError("short ESP datagram")
        spi, _seq = ESP_HEADER.unpack_from(datagram)
        sa = self._by_spi.get(spi)
        if sa is None:
            raise KeyError(f"unknown SPI {spi}")
        iv = datagram[ESP_HEADER.size : ESP_HEADER.size + BLOCK_SIZE]
        ciphertext = datagram[ESP_HEADER.size + BLOCK_SIZE :]
        return spi, sa.cipher.decrypt(ciphertext, iv)

    def handle(self, tagged: List[TaggedPacket]) -> None:
        for pkt in tagged:
            self.encapsulate(pkt.header)

    def stats(self) -> dict:
        return {
            "encapsulated": self.encapsulated,
            "bypassed": self.bypassed,
            "sas": len(self.sas),
        }
