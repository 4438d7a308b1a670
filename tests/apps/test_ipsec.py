"""Unit tests for the IPsec security gateway."""

import pytest

from repro.apps.ipsec import IpsecGatewayApp, SecurityAssociation
from repro.nic.flows import FlowSet
from repro.nic.packet import PacketHeader, ipv4


def gateway():
    gw = IpsecGatewayApp()
    gw.protect_everything(spi=5)
    return gw


def test_encapsulate_decapsulate_roundtrip():
    gw = gateway()
    header = PacketHeader(ipv4(10, 0, 0, 1), ipv4(192, 168, 0, 9), 5000, 53)
    datagram = gw.encapsulate(header)
    spi, plaintext = gw.decapsulate(datagram)
    assert spi == 5
    assert plaintext == gw.synth_payload(header)


def test_sequence_numbers_increment():
    gw = gateway()
    h = PacketHeader(1, 2, 3, 4)
    gw.encapsulate(h)
    gw.encapsulate(h)
    assert gw.sas[0].seq == 2


def test_unique_ivs_give_unique_ciphertexts():
    gw = gateway()
    h = PacketHeader(1, 2, 3, 4)
    d1 = gw.encapsulate(h)
    d2 = gw.encapsulate(h)
    assert d1 != d2               # same payload, different seq/IV
    assert gw.decapsulate(d1)[1] == gw.decapsulate(d2)[1]


def test_policy_selects_sa():
    gw = IpsecGatewayApp()
    sa_a = gw.add_sa(spi=10)
    sa_b = gw.add_sa(spi=20)
    gw.add_policy(ipv4(192, 168, 0, 0), 16, sa_a)
    gw.add_policy(ipv4(192, 168, 7, 0), 24, sa_b)
    inside = PacketHeader(1, ipv4(192, 168, 7, 5), 1, 2)
    outside = PacketHeader(1, ipv4(192, 168, 9, 5), 1, 2)
    assert gw.decapsulate(gw.encapsulate(inside))[0] == 20   # longest match
    assert gw.decapsulate(gw.encapsulate(outside))[0] == 10


def test_no_policy_bypasses():
    gw = IpsecGatewayApp()
    gw.add_sa(spi=10)
    # no policy installed at all
    assert gw.encapsulate(PacketHeader(1, 2, 3, 4)) is None
    assert gw.bypassed == 1


def test_unknown_spi_rejected():
    gw = gateway()
    d = gw.encapsulate(PacketHeader(1, 2, 3, 4))
    tampered = b"\x00\x00\x00\x63" + d[4:]
    with pytest.raises(KeyError):
        gw.decapsulate(tampered)


def test_short_datagram_rejected():
    gw = gateway()
    with pytest.raises(ValueError):
        gw.decapsulate(b"\x00" * 8)


def test_duplicate_spi_rejected():
    gw = IpsecGatewayApp()
    gw.add_sa(spi=10)
    with pytest.raises(ValueError):
        gw.add_sa(spi=10)


def test_bad_policy_index_rejected():
    gw = IpsecGatewayApp()
    with pytest.raises(ValueError):
        gw.add_policy(0, 0, 0)


def test_bad_spi_rejected():
    with pytest.raises(ValueError):
        SecurityAssociation(0, b"0" * 16, 1, 2)


def test_handle_counts(machine):
    gw = gateway()
    flows = FlowSet(num_flows=4)
    from repro.nic.packet import TaggedPacket

    tagged = [TaggedPacket(i, 0, flows.header_for(i)) for i in range(10)]
    gw.handle(tagged)
    assert gw.encapsulated == 10
    assert gw.stats()["encapsulated"] == 10
