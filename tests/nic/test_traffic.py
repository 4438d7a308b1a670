"""Unit and property tests for arrival processes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nic.traffic import (
    CbrProcess,
    RampProfile,
    gbps_to_pps,
    mpps,
    triangle_ramp,
)
from repro.sim.units import MS, SEC, US

from tests.conftest import poisson


def test_line_rate_constant():
    assert gbps_to_pps(10, 64) == 14_880_952


def test_gbps_scaling():
    assert gbps_to_pps(5, 64) == 14_880_952 // 2
    # larger frames, fewer packets
    assert gbps_to_pps(10, 1518) < gbps_to_pps(10, 64)


def test_mpps_helper():
    assert mpps(14.88) == 14_880_000


class TestCbr:
    def test_exact_count_over_one_second(self):
        p = CbrProcess(1_000_000)
        assert p.advance(1 * SEC) == 1_000_000

    def test_counts_are_additive(self):
        p1 = CbrProcess(14_880_952)
        total_split = p1.advance(333 * US) + p1.advance(999 * US)
        p2 = CbrProcess(14_880_952)
        assert total_split == p2.advance(999 * US)

    def test_zero_rate(self):
        p = CbrProcess(0)
        assert p.advance(1 * SEC) == 0
        assert p.next_arrival_after(0) is None

    def test_backwards_advance_raises(self):
        p = CbrProcess(1000)
        p.advance(1 * MS)
        with pytest.raises(ValueError):
            p.advance(0)

    def test_next_arrival_consistency(self):
        """advance() must see exactly the arrival next_arrival promised."""
        p = CbrProcess(1_000_000)  # one arrival per us
        t = p.next_arrival_after(0)
        assert p.advance(t - 1) == 0
        assert p.advance(t) == 1

    def test_time_for_count_exact(self):
        p = CbrProcess(1_000_000)
        t8 = p.time_for_count(0, 8)
        q = CbrProcess(1_000_000)
        assert q.advance(t8) == 8
        # ...and nothing more arrives until the 9th packet's slot
        assert q.advance(t8 + 999) == 0

    def test_negative_rate_raises(self):
        with pytest.raises(ValueError):
            CbrProcess(-1)


class TestPoisson:
    def _proc(self, rate=1_000_000, seed=9):
        return poisson(rate, seed=seed)

    def test_mean_count(self):
        p = self._proc()
        n = p.advance(100 * MS)
        expected = 100_000
        assert abs(n - expected) < 5 * (expected ** 0.5) + 10

    def test_committed_next_arrival_consistency(self):
        p = self._proc()
        t = p.next_arrival_after(0)
        assert p.advance(t - 1) == 0
        assert p.advance(t) >= 1

    def test_commitment_survives_partial_advance(self):
        p = self._proc(rate=1000)  # sparse
        t = p.next_arrival_after(0)
        # advance halfway: still zero arrivals
        assert p.advance(t // 2) == 0
        assert p.next_arrival_after(t // 2) == t

    def test_zero_rate(self):
        p = self._proc(rate=0)
        assert p.advance(1 * SEC) == 0
        assert p.next_arrival_after(0) is None

    def test_determinism_by_seed(self):
        a = self._proc(seed=5)
        b = self._proc(seed=5)
        steps = [10 * US, 50 * US, 1 * MS, 3 * MS]
        t = 0
        for dt in steps:
            t += dt
            assert a.advance(t) == b.advance(t)

    def test_variance_is_poisson_like(self):
        """Counts over many windows should have variance ≈ mean."""
        p = self._proc(rate=10_000_000)
        counts = []
        t = 0
        for _ in range(400):
            t += 50 * US
            counts.append(p.advance(t))
        mean = sum(counts) / len(counts)
        var = sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)
        assert 0.7 < var / mean < 1.4


class TestRamp:
    def test_single_segment_matches_cbr(self):
        ramp = RampProfile([(0, 1_000_000)])
        cbr = CbrProcess(1_000_000)
        for t in (100 * US, 1 * MS, 7 * MS):
            assert ramp.advance(t) == cbr.advance(t)

    def test_rate_change_counts(self):
        ramp = RampProfile([(0, 1_000_000), (1 * MS, 2_000_000)])
        assert ramp.advance(1 * MS) == 1000
        assert ramp.advance(2 * MS) == 2000

    def test_zero_then_nonzero(self):
        ramp = RampProfile([(0, 0), (1 * MS, 1_000_000)])
        assert ramp.advance(1 * MS) == 0
        first = ramp.next_arrival_after(1 * MS)
        assert first > 1 * MS
        assert ramp.advance(first) == 1

    def test_no_loss_at_boundaries(self):
        """The fluid accumulator must not drop fractional packets at
        segment boundaries."""
        segs = [(i * MS, 333_333 * (1 + i % 3)) for i in range(10)]
        ramp = RampProfile(segs)
        total = ramp.advance(10 * MS)
        # integral of the rate profile
        expected = sum(333_333 * (1 + i % 3) * MS for i in range(10)) // SEC
        assert abs(total - expected) <= 1

    def test_unsorted_segments_raise(self):
        with pytest.raises(ValueError):
            RampProfile([(10, 5), (0, 3)])

    def test_empty_profile_raises(self):
        with pytest.raises(ValueError):
            RampProfile([])

    def test_rate_at(self):
        ramp = RampProfile([(0, 100), (1 * MS, 200)])
        assert ramp.rate_at(0) == 100
        assert ramp.rate_at(2 * MS) == 200

    def test_triangle_ramp_shape(self):
        ramp = triangle_ramp(60 * MS, 14_000_000, steps=15)
        rates = [ramp.rate_at(t * MS) for t in range(0, 60, 2)]
        peak = max(rates)
        assert peak >= 13_000_000
        mid = len(rates) // 2
        assert rates[mid] > rates[0]
        assert rates[mid] > rates[-1]

    def test_triangle_ramp_bad_steps(self):
        with pytest.raises(ValueError):
            triangle_ramp(60 * MS, 1000, steps=0)


@settings(max_examples=50, deadline=None)
@given(
    rate=st.integers(min_value=1, max_value=20_000_000),
    cuts=st.lists(st.integers(min_value=1, max_value=10 * MS),
                  min_size=1, max_size=20),
)
def test_property_cbr_split_invariance(rate, cuts):
    """Counting over any partition equals counting over the union."""
    p = CbrProcess(rate)
    t, total = 0, 0
    for dt in cuts:
        t += dt
        total += p.advance(t)
    q = CbrProcess(rate)
    assert total == q.advance(t)


@settings(max_examples=40, deadline=None)
@given(
    rates=st.lists(st.integers(min_value=0, max_value=15_000_000),
                   min_size=1, max_size=8),
    cuts=st.lists(st.integers(min_value=1, max_value=3 * MS),
                  min_size=1, max_size=12),
)
def test_property_ramp_split_invariance(rates, cuts):
    segments = [(i * MS, r) for i, r in enumerate(rates)]
    p = RampProfile(segments)
    t, total = 0, 0
    for dt in cuts:
        t += dt
        total += p.advance(t)
    q = RampProfile(segments)
    assert total == q.advance(t)


@settings(max_examples=40, deadline=None)
@given(rate=st.integers(min_value=1, max_value=20_000_000),
       probe=st.integers(min_value=0, max_value=5 * MS))
def test_property_cbr_next_arrival_is_tight(rate, probe):
    """next_arrival_after returns the *first* time the count grows."""
    p = CbrProcess(rate)
    nxt = p.next_arrival_after(probe)
    base = CbrProcess(rate)
    before = base.advance(max(probe, nxt - 1))
    gained = base.advance(nxt)
    total_at_probe = CbrProcess(rate).advance(probe)
    assert before == total_at_probe  # nothing between probe and nxt-1
    assert gained >= 1
