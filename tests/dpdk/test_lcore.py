"""Unit tests for the static polling lcore (paper Listing 1)."""

import pytest

from repro.dpdk.app import CountingApp
from repro.dpdk.lcore import PollModeLcore
from repro.nic.rxqueue import RxQueue
from repro.nic.traffic import CbrProcess, RampProfile
from repro.sim.units import MS, SEC, US

from tests.conftest import make_machine


def setup_lcore(machine, rate=1_000_000, **kwargs):
    q = RxQueue(machine.sim, CbrProcess(rate), sample_every=64)
    lcore = PollModeLcore(machine, [q], CountingApp(), **kwargs)
    lcore.start()
    return q, lcore


def test_lcore_needs_queues():
    m = make_machine()
    with pytest.raises(ValueError):
        PollModeLcore(m, [], CountingApp())


def test_forwards_all_traffic():
    m = make_machine()
    q, lcore = setup_lcore(m, rate=1_000_000)
    m.run(until=20 * MS)
    q.sync()
    assert q.drops == 0
    assert lcore.rx_packets >= q.arrived_total - 64


def test_pins_core_at_100_percent():
    m = make_machine()
    setup_lcore(m, rate=100_000)   # light traffic, heavy polling
    m.run(until=20 * MS)
    assert m.cpu_utilization([0]) > 0.99


def test_sustains_line_rate():
    m = make_machine()
    q, lcore = setup_lcore(m, rate=14_880_952)
    m.run(until=20 * MS)
    q.sync()
    assert q.drops == 0
    mpps = lcore.rx_packets / (m.now / SEC) / 1e6
    assert mpps > 14.5


def test_fast_forward_under_no_traffic():
    """With zero traffic the loop must still burn CPU but generate few
    events (the empty-poll fast-forward)."""
    m = make_machine()
    setup_lcore(m, rate=0)
    m.run(until=50 * MS)
    assert m.cpu_utilization([0]) > 0.99
    # the whole 50ms idle spin should be a handful of events
    assert m.sim._seq < 1000


def test_tx_drain_flushes_stragglers():
    """A sub-threshold residue must leave within the 100us drain."""
    m = make_machine()
    # 10 packets arrive in a single spike, then nothing
    profile = RampProfile([(0, 0), (1 * MS, 10_000_000),
                           (1 * MS + 1 * US, 0)])
    q = RxQueue(m.sim, profile, sample_every=1)
    latencies = []
    lcore = PollModeLcore(m, [q], CountingApp())
    lcore.tx_buffers[0].on_tx = lambda p: latencies.append(p.latency_ns)
    lcore.start()
    m.run(until=3 * MS)
    assert latencies, "spike packets never transmitted"
    # delivered via the periodic drain: well under a millisecond
    assert max(latencies) < 300 * US


def test_burst_and_tx_batch_come_from_config():
    m = make_machine(rx_burst=8, tx_batch=1)
    app = CountingApp()
    q = RxQueue(m.sim, CbrProcess(1_000_000), sample_every=64)
    lcore = PollModeLcore(m, [q], app)
    assert lcore.burst == 8
    assert [tx.batch_threshold for tx in lcore.tx_buffers] == [1]
    lcore.start()
    m.run(until=5 * MS)
    # a batch of 1 transmits at once: the lcore's own latency stats
    # hold every tagged packet it handled
    assert lcore.latency.count == app.tagged_seen > 0


def test_multiple_queues_served():
    m = make_machine()
    q1 = RxQueue(m.sim, CbrProcess(500_000), sample_every=64)
    q2 = RxQueue(m.sim, CbrProcess(500_000), sample_every=64)
    lcore = PollModeLcore(m, [q1, q2], CountingApp())
    lcore.start()
    m.run(until=10 * MS)
    q1.sync(), q2.sync()
    assert q1.drops == 0 and q2.drops == 0
    assert lcore.rx_packets >= q1.arrived_total + q2.arrived_total - 128


def test_app_sees_tagged_packets():
    m = make_machine()
    q = RxQueue(m.sim, CbrProcess(1_000_000), sample_every=10)
    app = CountingApp()
    lcore = PollModeLcore(m, [q], app)
    lcore.start()
    m.run(until=10 * MS)
    assert app.tagged_seen >= 900
