"""The columnar trace pipeline agrees with its per-record reference.

``tests/traffic/reference.py`` keeps the record-at-a-time validation,
replay schedule and RSS shard loops; hypothesis draws traces (empty,
one record, duplicate timestamps, flow ids past ``num_flows``) and
queue counts, and every result must match exactly: the schedule,
``cycle_ns``, the shard partition, each ``ArrivalProcess`` method over
a time grid, and the first validation error.  Drawn call orders
(repeated ``advance`` to one instant, ``advance`` between two
arrivals, a backwards ``advance``, ``next_arrival_after`` and
``time_for_count`` interleaved) pin ``advance``'s cached next arrival.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nic.flows import FlowSet
from repro.nic.topology import rss_shard
from repro.traffic import MAX_FRAME_LEN, Phase, Trace, TraceError, TraceReplayProcess
from tests.traffic import reference

#: a small flow population, so many flow ids wrap past num_flows
FLOWS = FlowSet(num_flows=16)


@st.composite
def traces(draw, max_records=40):
    n = draw(st.integers(0, max_records))
    gaps = draw(st.lists(st.one_of(st.just(0), st.integers(0, 3000)),
                         min_size=n, max_size=n))
    times = []
    t = draw(st.integers(0, 500))
    for gap in gaps:
        t += gap
        times.append(t)
    lens = draw(st.lists(st.integers(1, MAX_FRAME_LEN), min_size=n,
                         max_size=n))
    flows = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
    end = (times[-1] if times else 0) + draw(st.integers(1, 2000))
    cuts = sorted({c for c in draw(st.lists(st.integers(1, end), max_size=3))
                   if c < end})
    bounds = [0, *cuts, end]
    phases = [Phase(f"p{i}", lo, hi)
              for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    if draw(st.booleans()):
        phases = []
    return Trace(phases=phases, records=list(zip(times, lens, flows)))


def _grid(ref, span):
    points = {-7, 0, span}
    points.update(k * span // 23 for k in range(24))
    for t in ref._times[:12]:
        points.update((t - 1, t, t + 1))
    return sorted(points)


def _assert_same_process(fast, ref, span):
    for seq in range(ref._n + 2):
        assert fast.flow_of(seq) == ref.flow_of(seq)
        assert fast.len_of(seq) == ref.len_of(seq)
    for t in _grid(ref, span):
        assert fast.next_arrival_after(t) == ref.next_arrival_after(t), t
        assert fast.rate_at(t) == ref.rate_at(t), t
        for k in range(4):
            assert fast.time_for_count(t, k) == ref.time_for_count(t, k)
        if t >= ref.last_t:
            assert fast.advance(t) == ref.advance(t), t
            assert fast.total == ref.total


@settings(max_examples=150, deadline=None)
@given(trace=traces(), queues=st.integers(1, 8))
def test_replay_and_shards_match_reference(trace, queues):
    fast = TraceReplayProcess(trace)
    ref = reference.ReferenceReplay(trace.records, trace.phases,
                                    trace.duration_ns)
    assert fast.schedule_times.tolist() == ref._times
    assert fast.cycle_ns == ref._cycle
    span = ref._cycle + 50

    shards = rss_shard(fast, queues, flows=FLOWS)
    ref_shards = reference.shard(ref, queues, FLOWS)
    assert len(shards) == len(ref_shards) == queues
    for got, want in zip(shards, ref_shards):
        assert got.schedule_times.tolist() == want._times
        assert got.schedule_flows.tolist() == want._flows
        assert got.schedule_lens.tolist() == want._lens
        _assert_same_process(got, want, span)
    # the master last: its advance() runs after the shards were cut
    _assert_same_process(fast, ref, span)


def _instants(ref):
    """Times on, around and between the schedule's arrivals."""
    points = {0, 1}
    times = ref._times
    for t, nxt in zip(times, times[1:] + times[-1:]):
        points.update((t - 1, t, t + 1, (t + nxt) // 2))
    return sorted(points)


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def _interleave(fast, ref, calls):
    for op, t, k in calls:
        if op == "again":
            t = ref.last_t
        if op in ("advance", "again"):
            assert _outcome(lambda: fast.advance(t)) == _outcome(
                lambda: ref.advance(t)), (op, t)
            assert (fast.total, fast.last_t) == (ref.total, ref.last_t)
        elif op == "next":
            assert fast.next_arrival_after(t) == ref.next_arrival_after(t)
        else:
            assert fast.time_for_count(t, k) == ref.time_for_count(t, k)


@settings(max_examples=100, deadline=None)
@given(trace=traces(max_records=300), queues=st.integers(1, 4),
       data=st.data())
def test_interleaved_calls_match_reference(trace, queues, data):
    fast = TraceReplayProcess(trace)
    ref = reference.ReferenceReplay(trace.records, trace.phases,
                                    trace.duration_ns)
    pairs = [(fast, ref), *zip(rss_shard(fast, queues, flows=FLOWS),
                               reference.shard(ref, queues, FLOWS))]
    for got, want in pairs:
        calls = data.draw(st.lists(st.tuples(
            st.sampled_from(["advance", "again", "next", "count"]),
            st.sampled_from(_instants(want)),
            st.integers(0, 3),
        ), max_size=30))
        _interleave(got, want, calls)


@pytest.mark.parametrize("step", [1, 7, 31, 32, 33, 63, 64, 65, 130, 1000])
def test_counts_across_the_search_window_match_reference(step):
    """Counting past ``total`` first searches a short window; steps
    that land inside, on and past its end must all count exactly."""
    # one arrival per ns, so a step of k ns brings exactly k arrivals,
    # then runs of duplicate timestamps
    times = list(range(1, 400)) + [t for t in range(400, 700)
                                   for _ in range(1 + t % 3)]
    fast = TraceReplayProcess(Trace(records=[(t, 64, 0) for t in times]))
    ref = reference.ReferenceReplay([(t, 64, 0) for t in times], [],
                                    times[-1])
    calls = []
    for t in range(0, times[-1] + step + 2, step):
        calls += [("next", t, 0), ("count", t, 3), ("advance", t, 0),
                  ("again", t, 0), ("count", t, 1)]
    _interleave(fast, ref, calls)


@st.composite
def corrupted(draw):
    records = draw(st.lists(st.tuples(
        st.integers(-2, 8),
        st.sampled_from([-1, 0, 1, 64, MAX_FRAME_LEN, MAX_FRAME_LEN + 1]),
        st.integers(-2, 5),
    ), max_size=12))
    phases = draw(st.lists(st.builds(
        Phase, st.sampled_from(["", "a", "b"]), st.integers(-2, 30),
        st.integers(-2, 50)), max_size=3))
    return records, phases


def _error(check):
    try:
        check()
    except TraceError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(case=corrupted())
def test_validate_reports_the_reference_first_error(case):
    records, phases = case
    trace = Trace(phases=phases, records=records)
    assert _error(trace.validate) == _error(
        lambda: reference.validate(records, phases))


@pytest.mark.parametrize("records", [
    [(5, 64, 0), (3, 64, 0), (-1, 0, -1)],   # first error wins
    [(5, 64, 0), (4, 64, 0)],
    [(1, 64, 0), (1, 64, 0), (2, 0, 0)],     # duplicates are fine
    [(1, 64, -1)],
    [(0, MAX_FRAME_LEN + 1, 0)],
])
def test_validate_first_error_examples(records):
    message = _error(Trace(records=records).validate)
    assert message is not None
    assert message == _error(lambda: reference.validate(records))
