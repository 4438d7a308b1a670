"""Unit and property tests for the jiffy timer wheel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.timerwheel import DrivenTimerWheel
from repro.sim.core import Simulator


def make(tick_ns=1000):
    sim = Simulator()
    return sim, DrivenTimerWheel(sim, tick_ns=tick_ns)


def test_basic_fire():
    sim, wheel = make()
    fired = []
    wheel.add(5_000, lambda: fired.append(sim.now))
    sim.run(until=4_000)
    assert fired == []
    sim.run(until=5_000)
    assert fired == [5_000]


def test_never_fires_early():
    sim, wheel = make()
    fired = []
    wheel.add(2_500, lambda: fired.append(sim.now))
    sim.run(until=2_999)
    assert fired == []          # 2.5 ticks rounds UP to tick 3
    sim.run()
    assert fired == [3_000]


def test_zero_delay_rounds_to_next_tick():
    sim, wheel = make()
    fired = []
    wheel.add(0, lambda: fired.append(sim.now))
    sim.run(until=999)
    assert fired == []
    sim.run(until=1000)
    assert fired == [1000]


def test_many_timers_ordering():
    sim, wheel = make(tick_ns=1)
    fired = []
    for d in (500, 100, 900, 100, 300):
        wheel.add(d, lambda d=d: fired.append(d))
    sim.run()
    assert fired == [100, 100, 300, 500, 900]


def test_pending_counter():
    sim, wheel = make(tick_ns=1)
    wheel.add(10, lambda: None)
    wheel.add(20, lambda: None)
    assert wheel.pending == 2
    sim.run(until=15)
    assert wheel.pending == 1
    sim.run()
    assert wheel.pending == 0


def test_negative_delay_raises():
    _sim, wheel = make()
    with pytest.raises(ValueError):
        wheel.add(-1, lambda: None)
    assert wheel.pending == 0


def test_bad_tick_raises():
    with pytest.raises(ValueError):
        DrivenTimerWheel(Simulator(), tick_ns=0)


@settings(max_examples=60, deadline=None)
@given(
    delays=st.lists(st.integers(min_value=0, max_value=2_000_000),
                    min_size=1, max_size=60),
    step=st.integers(min_value=100, max_value=100_000),
)
def test_property_all_timers_fire_at_or_after_expiry(delays, step):
    """Every timer fires exactly once, on the first tick at or after
    its delay (a sub-tick delay rounds up to one tick), however the
    run is sliced (down to a tenth of a tick)."""
    tick = 1000
    sim, wheel = make(tick_ns=tick)
    fired = {}
    for i, d in enumerate(delays):
        wheel.add(d, lambda i=i: fired.setdefault(i, []).append(sim.now))
    t = 0
    while wheel.pending:
        t += step
        sim.run(until=t)
    for i, d in enumerate(delays):
        assert fired[i] == [max(1, -(-d // tick)) * tick]


@settings(max_examples=40, deadline=None)
@given(
    delays=st.lists(st.integers(min_value=1, max_value=500_000),
                    min_size=2, max_size=40)
)
def test_property_firing_order_respects_expiry(delays):
    """Timers fire in expiry order, and in insertion order within a
    tick."""
    tick = 1000
    sim, wheel = make(tick_ns=tick)
    fired = []
    for i, d in enumerate(delays):
        wheel.add(d, lambda i=i: fired.append(i))
    sim.run()
    assert fired == sorted(range(len(delays)),
                           key=lambda i: (-(-delays[i] // tick), i))


class TestDrivenWheel:
    def test_fires_with_jiffy_granularity(self):
        sim, driven = make(tick_ns=1_000_000)
        fired = []
        driven.add(2_500_000, lambda: fired.append(sim.now))
        sim.run()
        assert len(fired) == 1
        # 2.5ms rounds up to the 3ms jiffy boundary
        assert fired[0] == 3_000_000

    def test_idle_wheel_costs_no_events(self):
        sim, _driven = make(tick_ns=1_000_000)
        sim.call_after(100_000_000, lambda: None)
        sim.run()
        # only the single user callback: no per-tick churn
        assert sim.events_scheduled == 1

    def test_stops_ticking_after_last_timer(self):
        sim, driven = make(tick_ns=1_000_000)
        driven.add(1_000_000, lambda: None)
        sim.run()
        assert driven.pending == 0
        # one tick event, at the fire time, and none after it
        assert (sim.now, sim.events_scheduled) == (1_000_000, 1)

    def test_rearming_from_callback(self):
        sim, driven = make(tick_ns=1_000_000)
        fired = []

        def periodic():
            fired.append(sim.now)
            if len(fired) < 5:
                driven.add(2_000_000, periodic)

        driven.add(2_000_000, periodic)
        sim.run()
        assert fired == [2_000_000, 4_000_000, 6_000_000, 8_000_000,
                         10_000_000]
        # one tick per jiffy while a timer is pending
        assert sim.events_scheduled == 10

    def test_next_tick_armed_inside_add(self):
        """A callback that arms a timer and then schedules an event for
        the next jiffy: the tick is armed inside ``add``, before that
        event, so at the next jiffy the wheel's timer fires first."""
        tick = 1_000_000
        sim, driven = make(tick_ns=tick)
        fired = []

        def at_tick_1():
            driven.add(0, lambda: fired.append(("wheel", sim.now)))
            sim.call_at(2 * tick, lambda: fired.append(("other", sim.now)))

        driven.add(tick, at_tick_1)
        sim.run()
        assert fired == [("wheel", 2 * tick), ("other", 2 * tick)]
