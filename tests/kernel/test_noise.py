"""Unit tests for the OS-noise generator (kernel-daemon interference)."""

import hashlib
import json

from repro import config
from repro.sim.units import MS

from tests.conftest import make_machine


def run_noisy(seed=1234, duration=40 * MS, num_cores=2):
    m = make_machine(num_cores=num_cores, os_noise=True, seed=seed)
    m.run(until=duration)
    return m


def test_bursts_and_stolen_time_accounting():
    m = run_noisy()
    noise = m.noise
    assert noise.bursts > 0
    # every burst steals a uniform slice within the configured band
    assert noise.bursts * config.OS_NOISE_MIN_NS <= noise.stolen_ns
    assert noise.stolen_ns <= noise.bursts * config.OS_NOISE_MAX_NS
    # the stolen time really lands in the cores' IRQ accounts
    assert sum(core.irq_ns for core in m.cores) >= noise.stolen_ns


def test_bursts_fire_at_jiffy_granularity():
    """kworker timers are wheel timers: they can only fire on 1 ms tick
    boundaries, never with hrtimer precision."""
    m = make_machine(num_cores=2, os_noise=True, seed=1234)
    times = []
    orig = m.noise._burst

    def recording_burst(core):
        times.append(m.sim.now)
        orig(core)

    m.noise._burst = recording_burst
    m.run(until=40 * MS)
    assert len(times) > 5
    assert all(t % 1_000_000 == 0 for t in times)


#: sha256 of the ``(now, core)`` burst timeline, stolen ns and calendar
#: entries of a 4-core, 200 ms noisy machine at seed 1234
BURST_TIMELINE_PIN = (
    "ef5cc2857b7984fc5c9df4f7b20468571cc6c21074a896d9ea008a6faa3c0a4d",
    6736074, 389)


def test_burst_timeline_pinned():
    """Every burst lands on the same jiffy and core, with the same draws
    and calendar entries, whatever stores the kworker timers."""
    m = make_machine(num_cores=4, os_noise=True, seed=1234)
    timeline = []
    orig = m.noise._burst

    def recording_burst(core):
        timeline.append((m.sim.now, core.index))
        orig(core)

    m.noise._burst = recording_burst
    m.run(until=200 * MS)
    digest = hashlib.sha256(json.dumps(timeline).encode()).hexdigest()
    assert (digest, m.noise.stolen_ns, m.sim.events_scheduled) \
        == BURST_TIMELINE_PIN


def test_same_seed_is_deterministic():
    a = run_noisy(seed=99)
    b = run_noisy(seed=99)
    assert (a.noise.bursts, a.noise.stolen_ns) == \
        (b.noise.bursts, b.noise.stolen_ns)


def test_different_seeds_differ():
    a = run_noisy(seed=1)
    b = run_noisy(seed=2)
    assert (a.noise.bursts, a.noise.stolen_ns) != \
        (b.noise.bursts, b.noise.stolen_ns)


def test_noise_disabled_by_default():
    m = make_machine(num_cores=2)
    assert m.noise is None
    m.run(until=10 * MS)
    assert sum(core.irq_ns for core in m.cores) == 0
