"""Unit tests for the two sleep services (the paper's §3.1 mechanics)."""

import pytest

from repro.kernel.sleep import HrSleep, Nanosleep
from repro.kernel.thread import Exit
from repro.sim.units import US

from tests.conftest import make_machine


def measure_sleeps(machine, service_name, target_us, n):
    out = []

    def body(kt):
        service = machine.sleep_service(service_name)
        for _ in range(n):
            t0 = machine.sim.now
            yield from service.call(kt, target_us * US)
            out.append((machine.sim.now - t0) / 1e3)
        yield Exit()

    machine.spawn(body, name="sleeper", core=0)
    machine.run()
    return out


def test_hr_sleep_is_precise():
    m = make_machine(num_cores=2)
    samples = measure_sleeps(m, "hr_sleep", 10, 500)
    mean = sum(samples) / len(samples)
    # paper Table 1: 14.76 us mean for a 10 us target
    assert 12.0 < mean < 17.0


def test_nanosleep_pays_timer_slack():
    m = make_machine(num_cores=2)
    samples = measure_sleeps(m, "nanosleep", 10, 500)
    mean = sum(samples) / len(samples)
    # paper Table 1: 67.59 us mean for a 10 us target
    assert 60.0 < mean < 75.0


def test_hr_sleep_beats_nanosleep_at_every_grain():
    for target in (1, 5, 50, 200):
        m = make_machine(num_cores=2)
        hr = measure_sleeps(m, "hr_sleep", target, 200)
        m2 = make_machine(num_cores=2)
        ns = measure_sleeps(m2, "nanosleep", target, 200)
        assert sum(hr) / len(hr) < sum(ns) / len(ns)


def test_sleep_never_shorter_than_target():
    m = make_machine(num_cores=2)
    for service in ("hr_sleep", "nanosleep"):
        samples = measure_sleeps(m, service, 20, 200)
        assert min(samples) >= 20.0


def test_overhead_grows_with_target_for_hr_sleep():
    """The cpuidle mechanism: longer sleeps wake from deeper C-states."""
    m1 = make_machine(num_cores=2)
    short = measure_sleeps(m1, "hr_sleep", 1, 300)
    m2 = make_machine(num_cores=2)
    long_ = measure_sleeps(m2, "hr_sleep", 200, 300)
    overhead_short = sum(short) / len(short) - 1
    overhead_long = sum(long_) / len(long_) - 200
    assert overhead_long > overhead_short * 1.5


def test_negative_duration_raises(machine):
    service = machine.sleep_service("hr_sleep")

    def body(kt):
        yield from service.call(kt, -5)

    machine.spawn(body, name="bad", core=0)
    with pytest.raises(ValueError):
        machine.run()


def test_zero_slack_nanosleep_converges_to_hr_sleep():
    """With slack disabled, nanosleep's remaining gap is just its
    heavier preamble — a small constant."""
    m = make_machine(num_cores=2, timer_slack_ns=0)
    ns = measure_sleeps(m, "nanosleep", 10, 300)
    m2 = make_machine(num_cores=2)
    hr = measure_sleeps(m2, "hr_sleep", 10, 300)
    gap = sum(ns) / len(ns) - sum(hr) / len(hr)
    assert 0 <= gap < 3.0


def test_submicro_immediate_return_patch():
    m = make_machine(num_cores=2)

    durations = []

    def body(kt):
        service = m.sleep_service("hr_sleep")
        service.immediate_below_ns = 1 * US
        for _ in range(10):
            t0 = m.sim.now
            yield from service.call(kt, 500)   # sub-microsecond request
            durations.append(m.sim.now - t0)
        yield Exit()

    m.spawn(body, name="patched", core=0)
    m.run()
    # immediate return: just the syscall cost, no timer pipeline
    assert all(d < 1 * US for d in durations)


def test_service_call_counter(machine):
    service = machine.sleep_service("hr_sleep")

    def body(kt):
        for _ in range(7):
            yield from service.call(kt, 10 * US)
        yield Exit()

    machine.spawn(body, name="s", core=0)
    machine.run()
    assert service.calls == 7


def test_unknown_service_raises(machine):
    with pytest.raises(ValueError):
        machine.sleep_service("powernap")


def test_cpu_cost_asymmetry(machine):
    hr = machine.sleep_service("hr_sleep")
    ns = machine.sleep_service("nanosleep")
    # the structural claim: nanosleep's kernel path costs ~3x
    assert ns.cpu_cost_per_call_ns() > 2.5 * hr.cpu_cost_per_call_ns()


def test_sleep_cputime_excludes_sleep_interval():
    """getrusage view: a sleeping thread accrues almost no CPU time."""
    m = make_machine(num_cores=2)

    def body(kt):
        service = m.sleep_service("hr_sleep")
        for _ in range(100):
            yield from service.call(kt, 100 * US)
        yield Exit()

    t = m.spawn(body, name="s", core=0)
    m.run()
    # ~10ms of wall sleep; CPU is only the kernel entry/exit paths
    assert t.cputime_ns < 300 * US


def test_sleep_service_factory(machine):
    from repro.kernel.sleep import HrSleep, Nanosleep

    assert isinstance(machine.sleep_service("hr_sleep"), HrSleep)
    assert isinstance(machine.sleep_service("nanosleep"), Nanosleep)


# --------------------------------------------------------------------- #
# degenerate-path call counting (regression: the expiry <= now early
# return skipped the calls counter, undercounting under the §5.4 patch)
# --------------------------------------------------------------------- #


def test_zero_duration_sleep_counts_call(machine):
    """expiry == now (hr_sleep of 0 ns) takes the early-return path."""
    service = machine.sleep_service("hr_sleep")

    def body(kt):
        for _ in range(5):
            yield from service.call(kt, 0)
        yield Exit()

    machine.spawn(body, name="zero", core=0)
    machine.run()
    assert service.calls == 5


def test_immediate_patch_counts_calls(machine):
    """Both §5.4 degenerate paths count: immediate_below and expiry<=now."""
    service = machine.sleep_service("hr_sleep")
    service.immediate_below_ns = 1 * US

    def body(kt):
        yield from service.call(kt, 500)     # immediate_below path
        yield from service.call(kt, 0)       # expiry <= now path
        yield from service.call(kt, 10 * US)  # full timer path
        yield Exit()

    machine.spawn(body, name="mixed", core=0)
    machine.run()
    assert service.calls == 3


def test_calls_counter_lives_in_registry(machine):
    """SleepService.calls is backed by the machine metrics registry."""
    service = machine.sleep_service("hr_sleep")

    def body(kt):
        yield from service.call(kt, 10 * US)
        yield Exit()

    machine.spawn(body, name="reg", core=0)
    machine.run()
    assert machine.metrics.value("sleep.hr_sleep.calls") == 1
    assert service.calls == 1
