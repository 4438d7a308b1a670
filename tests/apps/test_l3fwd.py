"""Unit tests for the L3 forwarder application."""

from repro.apps.l3fwd import L3FwdApp
from repro.nic.flows import FlowSet
from repro.nic.packet import TaggedPacket, ipv4


def test_routes_installed_from_flows():
    flows = FlowSet(num_flows=128, num_prefixes=16)
    app = L3FwdApp(flows=flows, num_ports=2)
    assert app.table.size == len(flows.all_destinations())


def test_every_flow_packet_routable():
    flows = FlowSet(num_flows=128, num_prefixes=16)
    app = L3FwdApp(flows=flows, num_ports=4)
    pkts = [TaggedPacket(i, 0, flows.header_for(i)) for i in range(500)]
    app.handle(pkts)
    assert app.lookups == 500
    assert app.misses == 0
    assert sum(app.forwarded) == 500


def test_next_hops_spread_over_ports():
    flows = FlowSet(num_flows=256, num_prefixes=32)
    app = L3FwdApp(flows=flows, num_ports=4)
    pkts = [TaggedPacket(i, 0, flows.header_for(i)) for i in range(2000)]
    app.handle(pkts)
    assert sum(1 for f in app.forwarded if f > 0) >= 3


def test_unroutable_counted_as_miss():
    app = L3FwdApp(flows=None)  # empty table
    from repro.nic.packet import PacketHeader

    app.handle([TaggedPacket(0, 0, PacketHeader(1, ipv4(8, 8, 8, 8), 1, 2))])
    assert app.misses == 1


def test_add_route_reaches_both_structures():
    app = L3FwdApp(flows=None)
    app.add_route(ipv4(10, 0, 0, 0), 8, 1)
    assert app.trie.lookup(ipv4(10, 5, 5, 5)) == 1
    assert app.table.lookup(ipv4(10, 5, 5, 5)) == 1


def test_stats_shape():
    flows = FlowSet(num_flows=16)
    app = L3FwdApp(flows=flows)
    app.handle([TaggedPacket(0, 0, flows.header_for(0))])
    stats = app.stats()
    assert stats["lookups"] == 1
    assert stats["misses"] == 0
    assert stats["routes"] > 0


def test_per_packet_cost_positive():
    app = L3FwdApp(flows=None)
    assert app.per_packet_ns > 0
    assert app.batch_cost_ns(32) > 32 * app.per_packet_ns
    assert app.batch_cost_ns(0) == 0
