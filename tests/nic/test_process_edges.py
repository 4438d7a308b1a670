"""Edge cases for the synthetic arrival processes.

Boundary behavior the figures lean on: a silent CBR source, zero-rate
ramp segments, advances landing exactly on segment boundaries, and
degenerate ON/OFF phase durations.
"""

import random

import pytest

from repro.nic.traffic import CbrProcess, OnOffProcess, RampProfile
from repro.sim.units import US


# -- CbrProcess at zero rate ------------------------------------------- #


def test_cbr_zero_rate():
    p = CbrProcess(0)
    assert p.advance(10_000) == 0
    assert p.next_arrival_after(0) is None
    assert p.time_for_count(0, 1) is None


# -- RampProfile zero-rate segments and boundaries --------------------- #


def test_ramp_zero_rate_segments():
    r = RampProfile([(0, 0), (1000, 1_000_000), (2000, 0)])
    assert r.advance(1000) == 0           # silent leading segment
    assert r.advance(2000) == 1           # one packet in the live window
    assert r.advance(100_000) == 0        # silent trailing segment


def test_ramp_next_arrival_skips_silent_segments():
    r = RampProfile([(0, 0), (1000, 1_000_000), (2000, 0)])
    # the single live-window packet completes exactly at the boundary
    assert r.next_arrival_after(0) == 2000
    r.advance(2000)
    assert r.next_arrival_after(2000) is None


def test_ramp_advance_exactly_on_boundaries_is_split_invariant():
    segments = [(0, 500_000), (1000, 2_000_000), (3000, 0), (5000, 750_000)]
    a, b = RampProfile(segments), RampProfile(segments)
    total = 0
    for t in (1000, 3000, 3000, 5000, 20_000):  # repeat = zero-width step
        total += a.advance(t)
    assert total == b.advance(20_000)
    assert a.total == b.total


def test_ramp_validation():
    with pytest.raises(ValueError, match="empty"):
        RampProfile([])
    with pytest.raises(ValueError, match="strictly increasing"):
        RampProfile([(0, 1), (0, 2)])  # zero-duration segment
    with pytest.raises(ValueError, match="strictly increasing"):
        RampProfile([(1000, 1), (0, 2)])


# -- OnOffProcess degenerate phases ------------------------------------ #


def test_onoff_one_ns_phases_still_progress():
    # expovariate gaps round down to 0; the timeline must still advance
    p = OnOffProcess(10_000_000, 1, 1, random.Random(3))
    total = 0
    for t in range(10, 20_000, 10):
        total += p.advance(t)
    # ~50% duty at 10 Mpps over 20 us -> order 100 packets, never stuck
    assert total > 0
    assert p.last_t == 19_990


def test_onoff_advance_exactly_on_committed_boundary():
    p = OnOffProcess(5_000_000, 50 * US, 50 * US, random.Random(9))
    first = p.next_arrival_after(0)
    # land exactly on the committed arrival time: it must be counted
    assert p.advance(first) >= 1
    again = p.next_arrival_after(first)
    assert again > first


def test_onoff_zero_rate_answers_none_without_drawing():
    rng = random.Random(5)
    state = rng.getstate()
    p = OnOffProcess(0, 200 * US, 600 * US, rng)
    assert p.next_arrival_after(0) is None
    assert p.time_for_count(0, 1) is None
    assert p.time_for_count(7, 0) == 7
    assert rng.getstate() == state
    assert p.advance(10_000 * US) == 0


def test_onoff_repeated_advance_to_same_time_adds_nothing():
    p = OnOffProcess(5_000_000, 50 * US, 50 * US, random.Random(4))
    p.advance(100 * US)
    before = p.total
    assert p.advance(100 * US) == 0
    assert p.total == before
