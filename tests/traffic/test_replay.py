"""Tests for TraceReplayProcess: the full ArrivalProcess contract."""

import pytest

from repro.nic.topology import rss_shard
from repro.sim.rng import RandomStreams
from repro.traffic import Phase, Trace, TraceReplayProcess


def make_trace() -> Trace:
    return Trace(
        phases=[Phase("a", 0, 500), Phase("b", 500, 1000)],
        records=[(100, 64, 3), (200, 128, 5), (400, 64, 3), (900, 256, 9)],
    )


def test_advance_totals_match_record_count():
    p = TraceReplayProcess(make_trace())
    assert p.advance(1000) == 4
    assert p.total == 4
    assert p.advance(5000) == 0  # no loop: trace exhausted


def test_stepwise_equals_one_shot():
    a = TraceReplayProcess(make_trace())
    b = TraceReplayProcess(make_trace())
    total = sum(a.advance(t) for t in (50, 100, 150, 400, 401, 1000))
    assert total == b.advance(1000)


def test_advance_backwards_rejected():
    p = TraceReplayProcess(make_trace())
    p.advance(300)
    with pytest.raises(ValueError, match="backwards"):
        p.advance(200)


def test_exact_schedule_and_next_arrival():
    p = TraceReplayProcess(make_trace())
    assert p.next_arrival_after(0) == 100
    assert p.next_arrival_after(100) == 200  # strictly after
    assert p.next_arrival_after(900) is None
    assert p.next_arrival_after(-50) == 100  # before start


def test_speedup_scales_gaps():
    p = TraceReplayProcess(make_trace(), speedup=2.0)
    assert p.next_arrival_after(0) == 50
    assert p.advance(500) == 4  # whole trace fits in half the time


def test_start_offset_shifts_schedule():
    p = TraceReplayProcess(make_trace(), start=10_000)
    assert p.next_arrival_after(0) == 10_100
    assert p.advance(10_000) == 0
    assert p.advance(11_000) == 4


def test_loop_exact_cycle_arithmetic():
    t = make_trace()
    p = TraceReplayProcess(t, loop=True)
    cycle = t.duration_ns  # 1000
    assert p.advance(3 * cycle) == 12
    # wrap: after the last arrival of a cycle, the next is cycle+first
    q = TraceReplayProcess(t, loop=True)
    assert q.next_arrival_after(900) == cycle + 100


def test_time_for_count_is_exact():
    p = TraceReplayProcess(make_trace())
    assert p.time_for_count(0, 1) == 100
    assert p.time_for_count(0, 4) == 900
    assert p.time_for_count(150, 1) == 200
    assert p.time_for_count(0, 5) is None
    assert p.time_for_count(123, 0) == 123


def test_time_for_count_matches_next_arrival_when_k_is_1():
    p = TraceReplayProcess(make_trace(), loop=True)
    t = 0
    for _ in range(50):
        nxt = p.next_arrival_after(t)
        assert p.time_for_count(t, 1) == nxt
        t = nxt


def test_rate_at_reports_phase_rates():
    p = TraceReplayProcess(make_trace())
    # phase a: 3 records in 500 ns; phase b: 1 record in 500 ns
    assert p.rate_at(0) == pytest.approx(3 * 1e9 / 500)
    assert p.rate_at(600) == pytest.approx(1 * 1e9 / 500)
    assert p.rate_at(2000) == 0.0
    looped = TraceReplayProcess(make_trace(), loop=True)
    assert looped.rate_at(1000 + 600) == pytest.approx(1 * 1e9 / 500)


def test_flow_and_len_plumbing():
    p = TraceReplayProcess(make_trace())
    assert [p.flow_of(i) for i in range(4)] == [3, 5, 3, 9]
    assert [p.len_of(i) for i in range(4)] == [64, 128, 64, 256]
    assert p.flow_of(4) is None and p.len_of(4) is None
    looped = TraceReplayProcess(make_trace(), loop=True)
    assert looped.flow_of(5) == 5  # 5 % 4 == 1
    assert looped.len_of(7) == 256


def test_jitter_is_deterministic_per_stream():
    t = make_trace()

    def schedule(seed):
        rng = RandomStreams(seed).stream("traffic.jitter")
        p = TraceReplayProcess(t, jitter=0.3, jitter_rng=rng)
        return [p.next_arrival_after(0), p.time_for_count(0, 4)]

    assert schedule(7) == schedule(7)
    assert schedule(7) != schedule(8)


def test_jitter_zero_equals_base_schedule():
    t = make_trace()
    rng = RandomStreams(1).stream("traffic.jitter")
    base = TraceReplayProcess(t)
    jit = TraceReplayProcess(t, jitter=0.0, jitter_rng=rng)
    assert [jit.time_for_count(0, k) for k in range(1, 5)] == \
        [base.time_for_count(0, k) for k in range(1, 5)]


def test_jittered_schedule_stays_monotonic():
    t = make_trace()
    rng = RandomStreams(42).stream("traffic.jitter")
    p = TraceReplayProcess(t, jitter=0.9, jitter_rng=rng)
    times = [p.time_for_count(0, k) for k in range(1, 5)]
    assert times == sorted(times)
    assert times[0] >= 1


def test_validation():
    t = make_trace()
    with pytest.raises(ValueError, match="speedup"):
        TraceReplayProcess(t, speedup=0)
    with pytest.raises(ValueError, match="jitter"):
        TraceReplayProcess(t, jitter=1.0)
    with pytest.raises(ValueError, match="RNG stream"):
        TraceReplayProcess(t, jitter=0.2)


def test_empty_trace_is_silent():
    p = TraceReplayProcess(Trace())
    assert p.advance(1000) == 0
    assert p.next_arrival_after(0) is None
    assert p.rate_at(500) == 0.0
    assert p.time_for_count(0, 1) is None
    assert p.flow_of(0) is None


def test_phases_abs_and_boundaries():
    p = TraceReplayProcess(make_trace(), start=2000)
    assert p.phases_abs() == [("a", 2000, 2500), ("b", 2500, 3000)]
    assert p.phase_boundaries() == [(2000, "a"), (2500, "b")]
    fast = TraceReplayProcess(make_trace(), speedup=2.0)
    assert fast.phases_abs() == [("a", 0, 250), ("b", 250, 500)]


def test_snapshot_state_pins_cursor_and_knobs():
    p = TraceReplayProcess(make_trace(), speedup=2.0, loop=True)
    p.advance(300)
    s = p.snapshot_state()
    assert s["kind"] == "trace-replay"
    assert s["trace_sha"] == make_trace().sha256()[:16]
    assert s["total"] == p.total and s["last_t"] == 300
    assert s["speedup"] == 2.0 and s["loop"] is True
    # a rebuilt process advanced identically snapshots identically
    q = TraceReplayProcess(make_trace(), speedup=2.0, loop=True)
    q.advance(300)
    assert q.snapshot_state() == s


def test_schedule_columns_are_read_only():
    p = TraceReplayProcess(make_trace())
    shards = [s for s in rss_shard(p, 2) if s.snapshot_state()["n"]]
    for proc in [p, *shards]:
        for column in (proc.schedule_times, proc.schedule_flows,
                       proc.schedule_lens):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
