"""Unit tests for the NIC port and its interrupt support."""

import pytest

from repro.nic.device import NicPort
from repro.nic.traffic import CbrProcess, RampProfile
from repro.sim.core import Simulator
from repro.sim.units import MS


def test_port_needs_queues():
    sim = Simulator()
    with pytest.raises(ValueError):
        NicPort(sim, [])


def test_rss_queues_independent():
    sim = Simulator()
    port = NicPort(sim, [CbrProcess(1_000_000), CbrProcess(2_000_000)],
                   ring_size=4096)
    sim.call_after(1 * MS, lambda: None)
    sim.run()
    assert port.queues[0].occupancy() == 1000
    assert port.queues[1].occupancy() == 2000
    assert port.total_arrived() == 3000


def test_irq_fires_at_next_arrival():
    sim = Simulator()
    port = NicPort(sim, [CbrProcess(1_000)])  # one packet per ms
    fired = []
    assert port.irq_arm(0, lambda: fired.append(sim.now))
    sim.run()
    assert len(fired) == 1
    assert fired[0] == 1 * MS  # first CBR arrival


def test_irq_arm_with_dead_source_returns_false():
    sim = Simulator()
    port = NicPort(sim, [CbrProcess(0)])
    assert not port.irq_arm(0, lambda: None)


def test_irq_one_shot():
    sim = Simulator()
    port = NicPort(sim, [CbrProcess(1_000_000)])
    fired = []
    port.irq_arm(0, lambda: fired.append(sim.now))
    sim.run(until=1 * MS)
    assert len(fired) == 1  # auto-masked after delivery


def test_irq_with_delayed_traffic_start():
    sim = Simulator()
    ramp = RampProfile([(0, 0), (5 * MS, 1_000_000)])
    port = NicPort(sim, [ramp])
    fired = []
    port.irq_arm(0, lambda: fired.append(sim.now))
    sim.run(until=10 * MS)
    assert len(fired) == 1
    assert fired[0] > 5 * MS


def test_loss_fraction_aggregates():
    sim = Simulator()
    port = NicPort(sim, [CbrProcess(10_000_000)], ring_size=1024)
    sim.call_after(1 * MS, lambda: None)
    sim.run()
    assert port.loss_fraction() > 0.8


# --------------------------------------------------------------------- #
# batched IRQ scheduling: all armed queues of a port share one drain
# event at the earliest pending due time
# --------------------------------------------------------------------- #


def test_irq_batch_single_event_for_many_queues():
    sim = Simulator()
    # four queues, same rate: arrivals coincide every 1 us
    port = NicPort(sim, [CbrProcess(1_000_000) for _ in range(4)])
    fired = []
    before = sim.pending
    for qi in range(4):
        port.irq_arm(qi, lambda qi=qi: fired.append((sim.now, qi)))
    # one shared drain event, not four
    assert sim.pending == before + 1
    sim.run(until=1_500)
    assert fired == [(1_000, 0), (1_000, 1), (1_000, 2), (1_000, 3)]


def test_irq_batch_delivers_in_arm_order():
    sim = Simulator()
    port = NicPort(sim, [CbrProcess(1_000_000) for _ in range(3)])
    fired = []
    for qi in (2, 0, 1):   # arm out of index order
        port.irq_arm(qi, lambda qi=qi: fired.append(qi))
    sim.run(until=1_500)
    assert fired == [2, 0, 1]


def test_irq_batch_staggered_due_times():
    sim = Simulator()
    port = NicPort(sim, [CbrProcess(1_000_000), CbrProcess(250_000)])
    fired = []
    port.irq_arm(0, lambda: fired.append(("fast", sim.now)))
    port.irq_arm(1, lambda: fired.append(("slow", sim.now)))
    sim.run(until=5_000)
    assert fired == [("fast", 1_000), ("slow", 4_000)]


def test_irq_batch_rearm_from_callback():
    sim = Simulator()
    port = NicPort(sim, [CbrProcess(1_000_000)])
    fired = []

    def on_irq():
        fired.append(sim.now)
        if len(fired) < 3:
            port.irq_arm(0, on_irq)

    port.irq_arm(0, on_irq)
    sim.run(until=10_000)
    assert fired == [1_000, 2_000, 3_000]
