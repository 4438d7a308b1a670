"""Tests for the Toeplitz RSS hash, including the Microsoft
verification vectors ("Verifying the RSS Hash Calculation")."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nic.packet import PacketHeader, ipv4
from repro.nic.rss import RssSteering, toeplitz_hash
from tests.nic.reference import hash_ipv4_only, hash_ipv4_tuple

# (dst ip, dst port, src ip, src port, expected tcp hash, expected ip hash)
MS_VECTORS = [
    (ipv4(161, 142, 100, 80), 1766, ipv4(66, 9, 149, 187), 2794,
     0x51CCC178, 0x323E8FC2),
    (ipv4(65, 69, 140, 83), 4739, ipv4(199, 92, 111, 2), 14230,
     0xC626B0EA, 0xD718262A),
    (ipv4(12, 22, 207, 184), 38024, ipv4(24, 19, 198, 95), 12898,
     0x5C2B394A, 0xD2D0A5DE),
    (ipv4(209, 142, 163, 6), 2217, ipv4(38, 27, 205, 30), 48228,
     0xAFC7327F, 0x82989176),
    (ipv4(202, 188, 127, 2), 1303, ipv4(153, 39, 163, 191), 44251,
     0x10E828A2, 0x5D1809C5),
]


@pytest.mark.parametrize("dst, dport, src, sport, tcp_hash, ip_hash",
                         MS_VECTORS)
def test_microsoft_tcp_vectors(dst, dport, src, sport, tcp_hash, ip_hash):
    assert hash_ipv4_tuple(src, dst, sport, dport) == tcp_hash


@pytest.mark.parametrize("dst, dport, src, sport, tcp_hash, ip_hash",
                         MS_VECTORS)
def test_microsoft_ip_only_vectors(dst, dport, src, sport, tcp_hash, ip_hash):
    assert hash_ipv4_only(src, dst) == ip_hash


@pytest.mark.parametrize("dst, dport, src, sport, tcp_hash, ip_hash",
                         MS_VECTORS)
def test_steering_matches_microsoft_vectors(dst, dport, src, sport, tcp_hash,
                                            ip_hash):
    """The table-driven steering lands every verification vector on the
    queue its published hash indexes."""
    rss = RssSteering(num_queues=3)
    data = (src.to_bytes(4, "big") + dst.to_bytes(4, "big")
            + sport.to_bytes(2, "big") + dport.to_bytes(2, "big"))
    assert rss.hash_input(data) == tcp_hash
    assert rss.hash_input(data[:8]) == ip_hash
    udp = PacketHeader(src, dst, sport, dport, proto=17)
    icmp = PacketHeader(src, dst, sport, dport, proto=1)
    assert rss.queue_for(udp) == rss.table[tcp_hash % len(rss.table)]
    assert rss.queue_for(icmp) == rss.table[ip_hash % len(rss.table)]


@settings(max_examples=200, deadline=None)
@given(key=st.binary(min_size=8, max_size=52),
       data=st.one_of(st.binary(min_size=8, max_size=8),
                      st.binary(min_size=12, max_size=12)))
def test_table_hash_matches_per_bit_reference(key, data):
    """One lookup per input byte equals the per-bit specification; a
    key too short for the input is rejected on both paths."""
    try:
        want = toeplitz_hash(key, data)
    except ValueError:
        with pytest.raises(ValueError, match="key too short"):
            RssSteering(num_queues=2, key=key).hash_input(data)
        return
    steering = RssSteering(num_queues=2, key=key)
    assert steering.hash_input(data) == want
    # tables built for the longer input serve the shorter one too
    assert steering.hash_input(data[:8]) == toeplitz_hash(key, data[:8])


def test_tables_built_on_first_use_per_steering():
    rss = RssSteering(num_queues=4)
    assert rss._tables == []
    rss.queue_for(PacketHeader(ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2), 5, 6))
    assert len(rss._tables) == 12
    assert RssSteering(num_queues=4)._tables == []


def test_key_too_short_rejected():
    with pytest.raises(ValueError):
        toeplitz_hash(b"\x00" * 8, b"\x01" * 12)


def test_hash_deterministic_and_32bit():
    h = hash_ipv4_tuple(ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2), 1, 2)
    assert h == hash_ipv4_tuple(ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2), 1, 2)
    assert 0 <= h < 1 << 32


class TestSteering:
    def test_stable_per_flow(self):
        rss = RssSteering(num_queues=4)
        h = PacketHeader(ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2), 5, 6)
        assert rss.queue_for(h) == rss.queue_for(h)
        assert 0 <= rss.queue_for(h) < 4

    def test_flows_spread(self):
        from repro.nic.flows import FlowSet

        rss = RssSteering(num_queues=4)
        flows = FlowSet(num_flows=512)
        counts = [0] * 4
        for i in range(512):
            counts[rss.queue_for(flows.header_of_flow(i))] += 1
        assert min(counts) > 60     # no starved queue

    def test_non_tcp_udp_uses_ip_only(self):
        rss = RssSteering(num_queues=2)
        icmp1 = PacketHeader(1, 2, 100, 200, proto=1)
        icmp2 = PacketHeader(1, 2, 999, 888, proto=1)
        # ports must not matter for non-TCP/UDP
        assert rss.queue_for(icmp1) == rss.queue_for(icmp2)

    def test_needs_queue(self):
        with pytest.raises(ValueError):
            RssSteering(num_queues=0)
