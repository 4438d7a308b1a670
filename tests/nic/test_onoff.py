"""Unit tests for the ON/OFF bursty traffic process."""

import hashlib
import json
import random

import pytest

from repro import config
from repro.nic.traffic import OnOffProcess, triangle_ramp
from repro.sim.rng import RandomStreams
from repro.sim.units import MS, SEC, US


def make(rate=10_000_000, on_us=100, off_us=300, seed=3, **kw):
    return OnOffProcess(rate, on_us * US, off_us * US,
                        random.Random(seed), **kw)


def test_mean_rate_matches_duty_cycle():
    p = make()
    n = p.advance(1 * SEC)
    expected = p.mean_rate_pps()  # 10M * 0.25 = 2.5M
    assert expected == pytest.approx(2_500_000)
    assert abs(n - expected) / expected < 0.15


def test_off_start_produces_silence_first():
    p = make(start_on=False)
    # the very first phase is OFF: tiny windows see nothing initially
    first = p.next_arrival_after(0)
    assert first > 0
    assert p.advance(first - 1) == 0


def test_on_start_produces_packets_immediately():
    p = make(start_on=True, rate=1_000_000)
    assert p.advance(50 * US) >= 20  # ~50 expected at 1Mpps


def test_split_invariance():
    a = make(seed=9)
    b = make(seed=9)
    t, total = 0, 0
    for dt in (17 * US, 333 * US, 1 * MS, 50 * US, 5 * MS):
        t += dt
        total += a.advance(t)
    assert total == b.advance(t)


def test_next_arrival_consistency():
    p = make(seed=4)
    t = p.next_arrival_after(0)
    assert p.advance(t - 1) == 0
    assert p.advance(t) >= 1


def test_next_arrival_monotone_queries():
    p = make(seed=5)
    p.advance(1 * MS)
    t1 = p.next_arrival_after(1 * MS)
    assert t1 > 1 * MS


def test_burstiness_visible():
    """Counts per window must be far more variable than CBR's."""
    p = make(rate=10_000_000, on_us=200, off_us=200, seed=6)
    counts = []
    t = 0
    for _ in range(400):
        t += 100 * US
        counts.append(p.advance(t))
    mean = sum(counts) / len(counts)
    var = sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)
    # CBR would have var≈0; ON/OFF at this timescale is wildly bursty
    assert var > mean


def test_validation():
    with pytest.raises(ValueError):
        make(rate=-1)
    with pytest.raises(ValueError):
        make(on_us=0)
    p = make()
    p.advance(1 * MS)
    with pytest.raises(ValueError):
        p.advance(0)


def test_rate_at_reports_phase():
    p = make(start_on=True, rate=7_000_000)
    assert p.rate_at(0) == 7_000_000


#: sha256 of :func:`_interleave`'s answers, per process
ARRIVALS_PIN = {
    "bursty-1":
        "6e00c72306cdd53920553c0af76a37f1bf3733c8e84d7d435bee7344ca63b03f",
    "bursty-2":
        "2f9ee040b7a3589e89666496498298ffdd14f274ee7fffe5c04fb3ad75e9bccb",
    "bursty-3":
        "8a21625cb652665117791a2c9649d92495ee2f62769c363a0373d1a0ff7802e9",
    "triangle":
        "b4db7f234281737d3fa3fc417c8b5617aca538a8fb8977109ffa342924faf3b1",
}


#: the same for 1-2 ns phases at line rate, over 60 µs
ONE_NS_PIN = \
    "1ba7efcc974470e0a64b120a561c8162976d97452ad84269a45968ef4513c91a"

#: sha256 of :func:`_jumps`' answers for 300 ns ON / 11 ns OFF phases
#: at line rate, per seed
JUMPS_PIN = {
    1: "6b61b98e0fa4d85de833fc9fe07e72cc9b56ca19e9abbb0b1eb191c7c26da35b",
    2: "2bcfeea174c971cf60af063f1a881d515e49b0ba5abe16b2060462bab7434311",
    3: "99943cb6770a611fc3744849bfc4396b9d1e8b2c10452fdd7cb348c01a867939",
}


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts the phase draws made from it."""

    draws = 0

    def expovariate(self, lambd):
        self.draws += 1
        return super().expovariate(lambd)


def _interleave(process, unit=US, rng=None):
    """``advance``, ``next_arrival_after`` and ``time_for_count`` at a
    fixed, irregular cadence over 60,000 ``unit``; the sha256 of every
    answer in call order, and of ``rng``'s draw count after each step
    when given one."""
    steps = (7 * unit, 130 * unit, 1, 45 * unit, 333 * unit, 2 * unit,
             90 * unit)
    out, t, i = [], 0, 0
    while t < 60_000 * unit:
        t += steps[i % len(steps)]
        out.append(process.advance(t))
        out.append(process.next_arrival_after(t + i % 4 * 10 * unit))
        out.append(process.time_for_count(t, i % 5))
        if rng is not None:
            out.append(rng.draws)
        i += 1
    out.append(process.total)
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def test_arrivals_pinned():
    """The bursty extension's process and the §5.3 ramp answer every
    query as they always have: same draws, same boundary walk."""
    got = {
        f"bursty-{s}": _interleave(OnOffProcess(
            config.LINE_RATE_PPS, 200 * US, 600 * US,
            RandomStreams(s).stream("bursty")))
        for s in (1, 2, 3)
    }
    got["triangle"] = _interleave(triangle_ramp(60 * MS, 14_000_000))
    assert got == ARRIVALS_PIN


def test_one_ns_phases_pinned():
    """Phases of a nanosecond or two: a walk that reaches the newest
    phase draws until one starts past that phase's first nanosecond,
    as it always has (one draw fewer shifts every later phase)."""
    rng = _CountingRandom(5)
    process = OnOffProcess(config.LINE_RATE_PPS, 1, 2, rng)
    assert _interleave(process, unit=1, rng=rng) == ONE_NS_PIN


def _jumps(process):
    """``next_arrival_after``, ``advance`` and ``time_for_count`` over
    5.1 ms in six jumps, two of them milliseconds long; the sha256 of
    every answer in call order."""
    out, t = [], 0
    for dt in (3 * MS, 1, 7 * US, 2 * MS, 130 * US, 45):
        out.append(process.next_arrival_after(t + dt))
        t += dt
        out.append(process.advance(t))
        out.append(process.time_for_count(t, 100))
    out.append(process.total)
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def test_short_phases_long_jumps_pinned():
    """Queries across ~20,000 phases a few hundred ns long (the first
    walk and the first advance each span 3 ms) make the same draws and
    give the same answers as lookups that scan every segment."""
    got = {
        s: _jumps(OnOffProcess(config.LINE_RATE_PPS, 300, 11,
                               RandomStreams(s).stream("bursty")))
        for s in (1, 2, 3)
    }
    assert got == JUMPS_PIN
