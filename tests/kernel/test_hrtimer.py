"""Unit tests for the high-resolution timer pipeline."""

from repro import config
from repro.kernel.thread import Compute, Exit, Suspend
from repro.sim.units import MS, US



def test_timer_fires_with_pipeline_latency(machine):
    fired = []
    machine.hrtimers[0].arm(100 * US, lambda: fired.append(machine.now))
    machine.run(until=1 * MS)
    assert len(fired) == 1
    # callback runs after IRQ delivery latency + handler (+ idle exit)
    assert fired[0] >= 100 * US + config.TIMER_IRQ_LATENCY_NS
    assert fired[0] <= 100 * US + 20 * US


def test_cancel_before_fire(machine):
    fired = []
    timer = machine.hrtimers[0].arm(100 * US, lambda: fired.append(1))
    machine.sim.call_after(50 * US, timer.cancel)
    machine.run(until=1 * MS)
    assert fired == []
    assert timer.cancelled and not timer.fired


def test_cancel_after_fire_is_noop(machine):
    fired = []
    timer = machine.hrtimers[0].arm(10 * US, lambda: fired.append(1))
    machine.run(until=1 * MS)
    timer.cancel()
    assert fired == [1]
    assert timer.fired


def test_irq_steals_time_from_running_thread(machine):
    finished = {}

    def body(kt):
        yield Compute(500 * US)
        finished["t"] = machine.now
        yield Exit()

    machine.spawn(body, name="victim", core=0)
    # timer on the same core mid-chunk: handler time is stolen
    machine.hrtimers[0].arm(200 * US, lambda: None)
    machine.run()
    assert finished["t"] >= 500 * US + config.TIMER_IRQ_HANDLER_NS


def test_wakeup_path_end_to_end(machine):
    """Arm-suspend-wake sequence: the canonical sleep skeleton."""
    waketime = {}

    def body(kt):
        machine.hrtimers[0].arm(machine.now + 50 * US, kt.wake)
        before = machine.now
        yield Suspend()
        waketime["delay"] = machine.now - before
        yield Exit()

    machine.spawn(body, name="sleeper", core=0)
    machine.run(until=5 * MS)
    # wake delay = 50us + IRQ latency + idle exit + handler + dispatch
    assert 50 * US < waketime["delay"] < 70 * US


def test_idle_core_returns_to_idle_after_orphan_timer(machine):
    """A timer whose callback wakes nothing leaves the core idle."""
    machine.hrtimers[2].arm(100 * US, lambda: None)
    machine.run(until=1 * MS)
    core = machine.cores[2]
    assert not core.is_busy
    assert core.irq_ns >= config.TIMER_IRQ_HANDLER_NS


def test_fired_count(machine):
    q = machine.hrtimers[0]
    for i in range(5):
        q.arm((i + 1) * 100 * US, lambda: None)
    machine.run(until=1 * MS)
    assert q.fired_count == 5


# --------------------------------------------------------------------- #
# cancel-leak regression: cancel() used to leave the timer in the
# queue's _armed map forever (only _fire pruned it, and _fire can no
# longer run once the sim handle is cancelled)
# --------------------------------------------------------------------- #


def test_cancel_prunes_armed_map(machine):
    q = machine.hrtimers[0]
    timer = q.arm(100 * US, lambda: None)
    assert len(q._armed) == 1
    timer.cancel()
    assert len(q._armed) == 0


def test_armed_map_bounded_under_arm_cancel_churn(machine):
    """The leak scenario: a watchdog re-armed and cancelled every tick
    (the paper's backup timeout) must not accumulate dead timers."""
    q = machine.hrtimers[0]
    state = {"n": 0, "wd": None}

    def tick():
        if state["wd"] is not None:
            state["wd"].cancel()
        state["wd"] = q.arm(machine.now + 10 * MS, lambda: None)
        state["n"] += 1
        if state["n"] < 2_000:
            machine.sim.call_after(10 * US, tick)

    machine.sim.call_after(10 * US, tick)
    machine.run(until=100 * MS)
    assert state["n"] == 2_000
    # one live watchdog at most (plus nothing leaked)
    assert len(q._armed) <= 1


def test_armed_set_after_cancel_churn(machine):
    q = machine.hrtimers[0]
    doomed = [q.arm((i + 2) * 100 * US, lambda: None) for i in range(50)]
    keeper = q.arm(9 * MS, lambda: None)
    for t in doomed:
        t.cancel()
    assert q.snapshot_state()["armed"] == [9 * MS]
    machine.run(until=20 * MS)
    assert keeper.fired
    assert q.snapshot_state()["armed"] == []


def test_cancel_during_fault_deferral(machine):
    """A timer whose hardware interrupt was fault-delayed can still be
    cancelled during the deferral window (the re-armed sim event must
    be the one the cancel reaches)."""
    from repro.faults.plan import FaultPlan, FaultSpec

    machine.install_faults(FaultPlan(
        name="all-misses",
        specs=(FaultSpec(kind="timer_miss", start_ns=0, end_ns=4 * MS,
                         magnitude=500 * US, probability=1.0),),
    ))
    fired = []
    timer = machine.hrtimers[0].arm(100 * US, lambda: fired.append(1))
    # cancel inside the deferral window: after the original expiry+IRQ
    # latency (the deferral decision) but before the stretched delivery
    machine.sim.call_after(300 * US, timer.cancel)
    machine.run(until=5 * MS)
    assert fired == []
    assert timer.cancelled and not timer.fired
    assert len(machine.hrtimers[0]._armed) == 0
