"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.core import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_call_after_runs_in_order():
    sim = Simulator()
    seen = []
    sim.call_after(30, seen.append, "c")
    sim.call_after(10, seen.append, "a")
    sim.call_after(20, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_same_time_fifo_order():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.call_after(10, seen.append, i)
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def test_clock_advances_to_callback_time():
    sim = Simulator()
    times = []
    sim.call_after(42, lambda: times.append(sim.now))
    sim.run()
    assert times == [42]
    assert sim.now == 42


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    sim.call_after(100, lambda: None)
    sim.run(until=50)
    assert sim.now == 50
    # the pending callback is still there
    assert sim.peek() == 100


def test_run_until_includes_events_at_bound():
    sim = Simulator()
    hits = []
    sim.call_after(50, hits.append, 1)
    sim.run(until=50)
    assert hits == [1]


def test_scheduling_in_past_raises():
    sim = Simulator()
    sim.call_after(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-1, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    handle = sim.call_after(10, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []
    assert handle.cancelled


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.call_after(10, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_nested_scheduling():
    sim = Simulator()
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.call_after(5, inner)

    def inner():
        seen.append(("inner", sim.now))

    sim.call_after(10, outer)
    sim.run()
    assert seen == [("outer", 10), ("inner", 15)]


def test_stop_halts_run():
    sim = Simulator()
    seen = []
    sim.call_after(10, seen.append, 1)
    sim.call_after(20, lambda: sim.stop())
    sim.call_after(30, seen.append, 2)
    sim.run()
    assert seen == [1]
    assert sim.now == 20


def test_step_single_event():
    sim = Simulator()
    seen = []
    sim.call_after(10, seen.append, 1)
    sim.call_after(20, seen.append, 2)
    assert sim.step()
    assert seen == [1]
    assert sim.step()
    assert seen == [1, 2]
    assert not sim.step()


def test_peek_skips_tombstones():
    sim = Simulator()
    h1 = sim.call_after(10, lambda: None)
    sim.call_after(20, lambda: None)
    h1.cancel()
    assert sim.peek() == 20


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed("payload")
    assert got == ["payload"]
    assert ev.triggered


def test_event_double_succeed_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_late_callback_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(7)
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    assert got == [7]


def test_many_events_performance_smoke():
    sim = Simulator()
    counter = {"n": 0}

    def tick():
        counter["n"] += 1
        if counter["n"] < 10_000:
            sim.call_after(1, tick)

    sim.call_after(1, tick)
    sim.run()
    assert counter["n"] == 10_000
    assert sim.now == 10_000


def test_handle_time_property():
    sim = Simulator()
    handle = sim.call_after(33, lambda: None)
    assert handle.time == 33


# --------------------------------------------------------------------- #
# fired-vs-cancelled truthfulness (regression: cancel() after the
# callback ran used to report cancelled=True for a callback that ran)
# --------------------------------------------------------------------- #


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    seen = []
    handle = sim.call_after(10, seen.append, "x")
    sim.run()
    assert seen == ["x"]
    handle.cancel()  # too late: the callback already ran
    assert not handle.cancelled
    assert handle.fired


def test_fired_and_cancelled_are_exclusive():
    sim = Simulator()
    fired = sim.call_after(10, lambda: None)
    dead = sim.call_after(20, lambda: None)
    dead.cancel()
    sim.run()
    assert fired.fired and not fired.cancelled
    assert dead.cancelled and not dead.fired


def test_fired_flag_via_step():
    sim = Simulator()
    handle = sim.call_after(5, lambda: None)
    assert not handle.fired
    assert sim.step()
    assert handle.fired


# --------------------------------------------------------------------- #
# tombstone accounting (regression: cancelled entries used to stay in
# the store until their due time, growing it without bound under the
# adaptive T_S re-arm / watchdog early-wake pattern)
# --------------------------------------------------------------------- #


def _stored_entries(sim) -> int:
    """Entries physically held across all of the simulator's stores."""
    return (len(sim._far) + len(sim._extra) + sim._near_count
            + len(sim._run) - sim._run_pos)


def test_cancel_heavy_store_stays_bounded():
    sim = Simulator()
    state = {"n": 0}

    def tick():
        n = state["n"] = state["n"] + 1
        # far-future watchdog, immediately obsolete: cancelled next tick
        wd = sim.call_after(10_000_000_000, lambda: None)
        sim.call_after(1_000, wd.cancel)
        if n < 5_000:
            sim.call_after(1_000, tick)

    sim.call_after(1_000, tick)
    sim.run()
    # without compaction the far heap would hold all 5000 tombstones
    assert _stored_entries(sim) < 200
    assert sim._dead <= sim._live + 64 + 1


def test_pending_counts_live_entries_only():
    sim = Simulator()
    keep = sim.call_after(10, lambda: None)
    dead = [sim.call_after(20 + i, lambda: None) for i in range(10)]
    assert sim.pending == 11
    for h in dead:
        h.cancel()
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0
    assert keep.fired


def test_compaction_preserves_fire_order():
    sim = Simulator()
    seen = []
    # a mix of near (bucketed) and far entries...
    for i in range(100):
        sim.call_after(100 + i, seen.append, i)
    doomed = [sim.call_after(50_000_000 + i, seen.append, -1)
              for i in range(300)]
    # ...then mass-cancel: tombstones outnumber the 100 live entries
    # partway through this loop, forcing a compaction mid-cancel
    for h in doomed:
        h.cancel()
    assert sim._dead < 300   # compaction ran and dropped tombstones
    sim.run()
    assert seen == list(range(100))


def test_peek_after_mass_cancel():
    sim = Simulator()
    doomed = [sim.call_after(10 + i, lambda: None) for i in range(100)]
    sim.call_after(5_000, lambda: None)
    for h in doomed:
        h.cancel()
    assert sim.peek() == 5_000
    assert sim.pending == 1
