"""Receive-Side Scaling: the Toeplitz hash.

Real NICs (including the paper's Intel X520) steer packets to Rx queues
by hashing the 5-tuple with the Microsoft Toeplitz algorithm over a
40-byte secret key and indexing a redirection table with the low bits.
This is that algorithm, bit-exact — verified in the tests against the
published Microsoft/Intel verification vectors.

Used by the multi-queue scenarios to decide which queue a tagged
packet's flow belongs to, replacing the "independent process per queue"
approximation with the NIC's real steering function when desired.

:func:`toeplitz_hash` is the specification, one input bit at a time.
:class:`RssSteering` hashes by table lookup instead: the hash is linear
over XOR, so each input byte adds the hash of that byte alone at its
position (the tests pin the two paths against each other).
"""

from __future__ import annotations

from typing import List

from repro.nic.packet import PacketHeader

#: The verification RSS key from the Microsoft RSS specification
#: (also Intel's default in many drivers).
MICROSOFT_KEY = bytes(
    [
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    ]
)


def toeplitz_hash(key: bytes, data: bytes) -> int:
    """The Toeplitz hash: for every set bit of ``data``, XOR in the
    32-bit window of the key starting at that bit position."""
    if len(data) * 8 + 32 > len(key) * 8:
        raise ValueError(
            f"key too short: need {len(data) * 8 + 32} bits, "
            f"have {len(key) * 8}"
        )
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    result = 0
    for byte_index, byte in enumerate(data):
        for bit in range(8):
            if byte & (0x80 >> bit):
                shift = key_bits - 32 - (byte_index * 8 + bit)
                result ^= (key_int >> shift) & 0xFFFFFFFF
    return result


class RssSteering:
    """The NIC's queue-steering function: hash + redirection table."""

    def __init__(self, num_queues: int, key: bytes = MICROSOFT_KEY,
                 table_size: int = 128):
        if num_queues < 1:
            raise ValueError("need at least one queue")
        self.num_queues = num_queues
        self.key = key
        #: the indirection table (ethtool -x); default round-robin fill
        self.table: List[int] = [i % num_queues for i in range(table_size)]
        #: per input position, the hash of each byte value alone there
        #: (filled on first use)
        self._tables: List[List[int]] = []

    def hash_input(self, data: bytes) -> int:
        """``toeplitz_hash(self.key, data)``, one lookup per byte."""
        tables = self._tables
        for pos in range(len(tables), len(data)):
            # entry b is the XOR of the hashes of b's set bits, each
            # alone at this position; doubling fills it bit by bit
            table = [0]
            for bit in (1, 2, 4, 8, 16, 32, 64, 128):
                w = toeplitz_hash(self.key, bytes(pos) + bytes((bit,)))
                table += [entry ^ w for entry in table]
            tables.append(table)
        h = 0
        for table, byte in zip(tables, data):
            h ^= table[byte]
        return h

    def queue_for(self, header: PacketHeader) -> int:
        """Queue index the NIC would deliver this packet to."""
        # src ip, dst ip and, for TCP/UDP, src port, dst port,
        # big-endian (the Microsoft canonical layout)
        data = (header.src_ip.to_bytes(4, "big")
                + header.dst_ip.to_bytes(4, "big"))
        if header.proto in (6, 17):
            data += (header.src_port.to_bytes(2, "big")
                     + header.dst_port.to_bytes(2, "big"))
        return self.table[self.hash_input(data) % len(self.table)]
