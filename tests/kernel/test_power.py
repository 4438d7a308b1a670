"""Unit tests for the power model and governors."""

import math

from repro import config
from repro.kernel.power import core_power_w
from repro.kernel.thread import BusySpin, Compute, Exit
from repro.sim.units import MS, SEC

from tests.conftest import make_machine


def test_idle_power_floor():
    p = core_power_w(False, config.BASE_FREQ_HZ, config.BASE_FREQ_HZ)
    assert p == config.CORE_IDLE_W


def test_active_power_at_max_freq():
    p = core_power_w(True, config.BASE_FREQ_HZ, config.BASE_FREQ_HZ)
    assert math.isclose(p, config.CORE_ACTIVE_MAX_W)


def test_power_scales_superlinearly_with_freq():
    half = core_power_w(True, config.BASE_FREQ_HZ // 2, config.BASE_FREQ_HZ)
    full = core_power_w(True, config.BASE_FREQ_HZ, config.BASE_FREQ_HZ)
    dyn_half = half - config.CORE_IDLE_W
    dyn_full = full - config.CORE_IDLE_W
    assert dyn_half < dyn_full / 2  # exponent > 1


def test_energy_of_idle_machine_is_package_floor():
    m = make_machine(num_cores=4)
    m.sim.call_after(1 * SEC, lambda: None)
    m.run()
    expected = (config.PKG_IDLE_W + 4 * config.CORE_IDLE_W) * 1.0
    assert math.isclose(m.energy_joules(), expected, rel_tol=0.01)


def test_busy_core_draws_more_energy():
    idle = make_machine(num_cores=2)
    idle.sim.call_after(100 * MS, lambda: None)
    idle.run()

    busy = make_machine(num_cores=2)

    def hog(kt):
        yield BusySpin(100 * MS)
        yield Exit()

    busy.spawn(hog, name="hog", core=0)
    busy.run(until=100 * MS)
    extra = busy.energy_joules() - idle.energy_joules()
    expected = (config.CORE_ACTIVE_MAX_W - config.CORE_IDLE_W) * 0.1
    assert math.isclose(extra, expected, rel_tol=0.05)


def test_busy_energy_uses_the_current_frequency():
    """A busy interval is charged at the busy-state draw of the core's
    frequency (the core caches it on every frequency write)."""
    m = make_machine(num_cores=1)
    half = config.BASE_FREQ_HZ // 2
    m.cores[0].freq = half

    def hog(kt):
        yield BusySpin(100 * MS)
        yield Exit()

    m.spawn(hog, name="hog", core=0)
    m.run(until=100 * MS)
    busy_w = core_power_w(True, half, config.BASE_FREQ_HZ)
    expected = (config.PKG_IDLE_W + busy_w) * 0.1
    assert math.isclose(m.energy_joules(), expected, rel_tol=1e-9)


def test_ondemand_lowers_frequency_when_idle():
    m = make_machine(num_cores=2, governor="ondemand")
    m.run(until=50 * MS)
    assert all(c.freq <= config.MIN_FREQ_HZ * 1.05 for c in m.cores)


def test_ondemand_raises_frequency_under_load():
    m = make_machine(num_cores=2, governor="ondemand")

    def hog(kt):
        yield BusySpin(200 * MS)
        yield Exit()

    m.spawn(hog, name="hog", core=0)
    m.run(until=60 * MS)
    assert m.cores[0].freq == config.BASE_FREQ_HZ
    assert m.cores[1].freq < config.BASE_FREQ_HZ


def test_low_frequency_stretches_execution():
    """The physical coupling: same work takes longer at lower clock."""
    m = make_machine(num_cores=2, governor="ondemand")
    done = {}

    def light(kt):
        # idle long enough for the governor to downclock
        m.hrtimers[0].arm(m.now + 60 * MS, kt.wake)
        from repro.kernel.thread import Suspend
        yield Suspend()
        t0 = m.now
        yield Compute(1 * MS)
        done["wall"] = m.now - t0
        yield Exit()

    m.spawn(light, name="light", core=0)
    m.run(until=200 * MS)
    # 1ms of base-frequency work at ~800MHz takes ~2.6x longer
    assert done["wall"] > int(1 * MS * 1.8)


def test_performance_governor_pins_max():
    m = make_machine(num_cores=2, governor="performance")
    m.run(until=50 * MS)
    assert all(c.freq == config.BASE_FREQ_HZ for c in m.cores)


def test_unknown_governor_raises():
    import pytest

    with pytest.raises(ValueError):
        make_machine(governor="schedutil")


def test_energy_monotonically_increases():
    m = make_machine(num_cores=2)
    m.run(until=10 * MS)
    e1 = m.energy_joules()
    m.sim.call_after(10 * MS, lambda: None)
    m.run()
    assert m.energy_joules() > e1


def test_ondemand_step_charges_running_chunk_at_old_speed():
    """A frequency step mid-chunk: the work done before it ran at the
    old clock.  1 ms of base work alone on core 0, stepped from 2.1 to
    1.667 GHz at 0.5 ms: the first half is done by then, the second
    takes 0.5 ms * 2.1 / 1.667 = 0.63 ms (finish at 1,130,001 ns, the
    thread starting at 1 ns).  Converting the first half at the new
    speed instead finishes at 1,260,001 ns."""
    m = make_machine(num_cores=2, governor="ondemand")
    done = {}

    def job(kt):
        yield Compute(1 * MS)
        done["t"] = m.now
        yield Exit()

    m.spawn(job, name="job", core=0)
    core = m.cores[0]
    m.sim.call_at(MS // 2, m.governor._set_freq, core, 0.5)
    m.run(until=5 * MS)
    assert core.freq == 1_666_666_666
    assert done["t"] == 1_130_001
