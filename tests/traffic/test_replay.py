"""Tests for TraceReplayProcess: the full ArrivalProcess contract."""

import pytest

from repro.nic.topology import rss_shard
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
    assert p.advance(5000) == 0  # trace exhausted


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


def test_time_for_count_is_exact():
    p = TraceReplayProcess(make_trace())
    assert p.time_for_count(0, 1) == 100
    assert p.time_for_count(0, 4) == 900
    assert p.time_for_count(150, 1) == 200
    assert p.time_for_count(0, 5) is None
    assert p.time_for_count(123, 0) == 123


def test_time_for_count_matches_next_arrival_when_k_is_1():
    p = TraceReplayProcess(make_trace())
    t, seen = 0, 0
    while t is not None:
        nxt = p.next_arrival_after(t)
        assert p.time_for_count(t, 1) == nxt
        t = nxt
        seen += 1
    assert seen == 5  # four arrivals, then None


def test_rate_at_reports_phase_rates():
    p = TraceReplayProcess(make_trace())
    # phase a: 3 records in 500 ns; phase b: 1 record in 500 ns
    assert p.rate_at(0) == pytest.approx(3 * 1e9 / 500)
    assert p.rate_at(600) == pytest.approx(1 * 1e9 / 500)
    assert p.rate_at(2000) == 0.0


def test_flow_and_len_plumbing():
    p = TraceReplayProcess(make_trace())
    assert [p.flow_of(i) for i in range(4)] == [3, 5, 3, 9]
    assert [p.len_of(i) for i in range(4)] == [64, 128, 64, 256]
    assert p.flow_of(4) is None and p.len_of(4) is None


def test_empty_trace_is_silent():
    p = TraceReplayProcess(Trace())
    assert p.advance(1000) == 0
    assert p.next_arrival_after(0) is None
    assert p.rate_at(500) == 0.0
    assert p.time_for_count(0, 1) is None
    assert p.flow_of(0) is None


def test_phases_abs_and_boundaries():
    p = TraceReplayProcess(make_trace())
    assert p.phases_abs() == [("a", 0, 500), ("b", 500, 1000)]
    assert p.phase_boundaries() == [(0, "a"), (500, "b")]


def test_snapshot_state_pins_cursor_and_knobs():
    p = TraceReplayProcess(make_trace())
    p.advance(300)
    s = p.snapshot_state()
    assert s["kind"] == "trace-replay"
    assert len(s["schedule_sha"]) == 16
    assert s["n"] == 4
    assert s["total"] == p.total == 2 and s["last_t"] == 300
    # a rebuilt process advanced identically snapshots identically
    q = TraceReplayProcess(make_trace())
    q.advance(300)
    assert q.snapshot_state() == s


def test_snapshot_never_serialises_the_trace(monkeypatch):
    def refuse(self):
        raise AssertionError("capture serialised the whole trace")

    p = TraceReplayProcess(make_trace())
    monkeypatch.setattr(Trace, "sha256", refuse)
    assert p.snapshot_state()["kind"] == "trace-replay"


@pytest.mark.parametrize("field", [1, 2])  # frame length, flow id
def test_schedule_digest_sees_one_changed_record(field):
    records = make_trace().records
    changed = list(records[2])
    changed[field] += 1
    records[2] = tuple(changed)
    other = Trace(phases=make_trace().phases, records=records)
    digest = TraceReplayProcess(make_trace()).snapshot_state()["schedule_sha"]
    assert TraceReplayProcess(other).snapshot_state()["schedule_sha"] != digest


def test_schedule_columns_are_read_only():
    p = TraceReplayProcess(make_trace())
    shards = [s for s in rss_shard(p, 2) if s.snapshot_state()["n"]]
    for proc in [p, *shards]:
        for column in (proc.schedule_times, proc.schedule_flows,
                       proc.schedule_lens):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
