"""``RampProfile`` and ``OnOffProcess`` against their scanning references.

Every segment lookup is a bisect over the ``(start, rate)`` list; the
references in ``tests/nic/reference.py`` scan from the first segment.
Random profiles and random query sequences must get the same answer to
every query, leave the same segments behind and, for ON/OFF traffic,
make the same phase draws.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nic.traffic import OnOffProcess, RampProfile
from tests.nic.reference import ScanOnOffProcess, ScanRampProfile

#: (operation, offset past the last advance, count for time_for_count)
OPS = st.lists(
    st.tuples(st.sampled_from(("advance", "next", "rate", "count")),
              st.integers(0, 3_000), st.integers(0, 40)),
    min_size=1, max_size=40)


def _answer(process, op, dt, k):
    t = process.last_t + dt
    if op == "advance":
        return process.advance(t)
    if op == "next":
        return process.next_arrival_after(t)
    if op == "rate":
        return process.rate_at(t)
    return process.time_for_count(t, k)


@settings(max_examples=200, deadline=None)
@given(
    first=st.integers(0, 1_000),
    gaps=st.lists(st.integers(1, 2_000), max_size=12),
    rates=st.lists(st.integers(0, 20_000_000), min_size=13, max_size=13),
    ops=OPS,
)
def test_ramp_matches_scan_reference(first, gaps, rates, ops):
    starts = [first]
    for gap in gaps:
        starts.append(starts[-1] + gap)
    segments = list(zip(starts, rates))
    fast, ref = RampProfile(segments), ScanRampProfile(segments)
    for op, dt, k in ops:
        assert _answer(fast, op, dt, k) == _answer(ref, op, dt, k)
        assert (fast.total, fast.last_t, fast._acc) == \
            (ref.total, ref.last_t, ref._acc)


@settings(max_examples=200, deadline=None)
@given(
    # at least 1 Mpps and an ON share of at least 1/9, so the next
    # arrival is a few dozen phases away at most
    rate=st.integers(1_000_000, 20_000_000),
    mean_on=st.integers(50, 400),
    mean_off=st.integers(1, 400),
    seed=st.integers(0, 2 ** 32),
    start=st.integers(0, 1_000),
    start_on=st.booleans(),
    ops=OPS,
)
def test_onoff_matches_scan_reference(rate, mean_on, mean_off, seed, start,
                                      start_on, ops):
    fast = OnOffProcess(rate, mean_on, mean_off, random.Random(seed),
                        start=start, start_on=start_on)
    ref = ScanOnOffProcess(rate, mean_on, mean_off, random.Random(seed),
                           start=start, start_on=start_on)
    for op, dt, k in ops:
        assert _answer(fast, op, dt, k) == _answer(ref, op, dt, k)
        assert fast.segments == ref.segments
        assert fast._rng.getstate() == ref._rng.getstate()
