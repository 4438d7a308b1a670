"""Unit tests for the CFS-like scheduler."""

import pytest

from repro.kernel.thread import BusySpin, Compute, Exit, Suspend, ThreadState, YieldCpu
from repro.sim.units import MS, US

from tests.conftest import make_machine


def compute_loop(chunks):
    """Body: run the given compute chunks then exit."""
    def body(kt):
        for c in chunks:
            yield Compute(c)
        yield Exit()
    return body


def test_single_thread_runs_to_completion(machine):
    t = machine.spawn(compute_loop([10 * US, 5 * US]), name="w", core=0)
    machine.run()
    assert t.state is ThreadState.DEAD
    assert t.cputime_ns == 15 * US
    assert machine.now >= 15 * US


def test_compute_accumulates_cputime(machine):
    t = machine.spawn(compute_loop([1 * MS] * 5), name="w", core=0)
    machine.run()
    assert t.cputime_ns == 5 * MS


def test_threads_on_different_cores_run_in_parallel(machine):
    a = machine.spawn(compute_loop([10 * MS]), name="a", core=0)
    b = machine.spawn(compute_loop([10 * MS]), name="b", core=1)
    machine.run()
    assert a.state is ThreadState.DEAD and b.state is ThreadState.DEAD
    # parallel: finished in ~10ms wall, not 20
    assert machine.now < 12 * MS


def test_equal_weight_threads_share_fairly():
    m = make_machine(num_cores=1)
    a = m.spawn(compute_loop([40 * MS]), name="a", core=0, nice=0)
    b = m.spawn(compute_loop([40 * MS]), name="b", core=0, nice=0)
    m.run(until=40 * MS)
    # both got roughly half the CPU over the window
    assert abs(a.cputime_ns - b.cputime_ns) < 8 * MS
    assert a.cputime_ns + b.cputime_ns > 35 * MS


def test_nice_weights_bias_shares():
    m = make_machine(num_cores=1)
    hi = m.spawn(compute_loop([200 * MS]), name="hi", core=0, nice=-5)
    lo = m.spawn(compute_loop([200 * MS]), name="lo", core=0, nice=5)
    m.run(until=60 * MS)
    # weight(-5)=3121, weight(5)=335: hi should get ~90% of the CPU
    share = hi.cputime_ns / (hi.cputime_ns + lo.cputime_ns)
    assert share > 0.8


def test_wakeup_preemption_of_low_priority():
    """A woken nice -20 thread displaces a running nice 19 hog quickly."""
    m = make_machine(num_cores=1)
    hog = m.spawn(compute_loop([100 * MS]), name="hog", core=0, nice=19)

    dispatch_delay = {}

    def sleeper(kt):
        yield Compute(10 * US)
        # arm a timer and suspend
        m.hrtimers[0].arm(m.now + 100 * US, kt.wake)
        before = m.now
        yield Suspend()
        dispatch_delay["value"] = m.now - before - 100 * US
        yield Exit()

    m.spawn(sleeper, name="sleeper", core=0, nice=-20)
    m.run(until=50 * MS)
    # woken well before the hog's multi-ms slice would have ended
    assert dispatch_delay["value"] < 50 * US
    assert hog.state is not ThreadState.DEAD


def test_suspend_and_wake(machine):
    trace = []

    def body(kt):
        trace.append(("pre", machine.now))
        yield Suspend()
        trace.append(("post", machine.now))
        yield Exit()

    t = machine.spawn(body, name="s", core=0)
    machine.sim.call_after(5 * MS, t.wake)
    machine.run()
    assert trace[0][0] == "pre"
    assert trace[1][1] >= 5 * MS


def test_wake_before_suspend_is_not_lost(machine):
    """A wake landing while the thread still runs must not deadlock it."""
    def body(kt):
        yield Compute(1 * MS)   # wake arrives during this chunk
        yield Suspend()         # must return immediately
        yield Exit()

    t = machine.spawn(body, name="racer", core=0)
    machine.sim.call_after(100 * US, t.wake)  # mid-compute
    machine.run(until=10 * MS)
    assert t.state is ThreadState.DEAD


def test_yield_cpu_round_robins():
    m = make_machine(num_cores=1)
    order = []

    def body(name):
        def gen(kt):
            for _ in range(3):
                yield Compute(10 * US)
                order.append(name)
                yield YieldCpu()
            yield Exit()
        return gen

    m.spawn(body("a"), name="a", core=0)
    m.spawn(body("b"), name="b", core=0)
    m.run()
    # both threads made progress interleaved, not a then b entirely
    assert set(order[:4]) == {"a", "b"}


def test_busy_spin_until(machine):
    t_end = {}

    def body(kt):
        yield BusySpin(3 * MS)
        t_end["now"] = machine.now
        yield Exit()

    t = machine.spawn(body, name="spin", core=0)
    machine.run()
    assert t_end["now"] == 3 * MS
    # spinning consumed CPU the whole time
    assert t.cputime_ns >= 3 * MS - 10 * US


def test_busy_spin_in_past_is_noop(machine):
    def body(kt):
        yield Compute(5 * MS)
        yield BusySpin(1 * MS)  # already in the past
        yield Exit()

    t = machine.spawn(body, name="spin", core=0)
    machine.run()
    assert t.state is ThreadState.DEAD


def test_exit_action_terminates(machine):
    def body(kt):
        yield Compute(1 * US)
        yield Exit()
        yield Compute(1 * MS)  # pragma: no cover

    t = machine.spawn(body, name="x", core=0)
    machine.run()
    assert t.state is ThreadState.DEAD
    assert t.cputime_ns < 1 * MS


def test_generator_return_terminates(machine):
    def body(kt):
        yield Compute(1 * US)
        return "finished"

    t = machine.spawn(body, name="x", core=0)
    machine.run()
    assert t.state is ThreadState.DEAD
    assert t.exit_value == "finished"
    assert t.exited.triggered


def test_action_subclass_is_an_unknown_action(machine):
    """The scheduler dispatches on an action's exact class."""
    class LongCompute(Compute):
        __slots__ = ()

    def body(kt):
        yield LongCompute(1 * US)

    machine.spawn(body, name="x", core=0)
    with pytest.raises(RuntimeError, match="unknown action"):
        machine.run()


def test_irq_injection_stretches_running_chunk(machine):
    done_at = {}

    def body(kt):
        yield Compute(1 * MS)
        done_at["t"] = machine.now
        yield Exit()

    t = machine.spawn(body, name="w", core=0)
    machine.sim.call_after(500 * US, machine.cores[0].inject_irq_time, 200 * US)
    machine.run()
    # the chunk took 1ms of work plus 200us of stolen IRQ time
    assert done_at["t"] >= 1 * MS + 200 * US
    # but the IRQ time is not charged to the thread
    assert abs(t.cputime_ns - 1 * MS) < 5 * US


def test_irq_on_idle_core_accounts_busy(machine):
    core = machine.cores[1]
    machine.sim.call_after(1 * MS, core.inject_irq_time, 300 * US)
    machine.run(until=5 * MS)
    assert core.busy_ns >= 300 * US
    assert not core.is_busy


def test_pinning_is_respected(machine):
    a = machine.spawn(compute_loop([2 * MS]), name="a", core=2)
    machine.run()
    assert machine.cores[2].busy_ns >= 2 * MS
    assert machine.cores[0].busy_ns == 0
    assert a.core is machine.cores[2]


def test_dispatch_latency_recorded():
    m = make_machine(num_cores=1)
    hog = m.spawn(compute_loop([20 * MS]), name="hog", core=0, nice=0)
    late = m.spawn(compute_loop([1 * MS]), name="late", core=0, nice=0)
    m.run(until=30 * MS)
    # the second thread waited for the CPU at least once
    assert late.dispatch_latency_ns > 0
    assert hog.preemptions + late.preemptions > 0


def test_vruntime_scaling_by_weight():
    m = make_machine(num_cores=1)
    heavy = m.spawn(compute_loop([10 * MS]), name="h", core=0, nice=-20)
    light = m.spawn(compute_loop([10 * MS]), name="l", core=0, nice=19)
    m.run(until=5 * MS)
    # same vruntime progress requires far more walltime for the heavy
    # thread: its cputime should dominate
    assert heavy.cputime_ns > 10 * light.cputime_ns


def test_start_thread_twice_raises(machine):
    t = machine.spawn(compute_loop([1 * US]), name="t", core=0)
    with pytest.raises(RuntimeError):
        machine.scheduler.start_thread(t)


def test_context_switch_cost_charged():
    m = make_machine(num_cores=1)
    m.spawn(compute_loop([5 * MS]), name="a", core=0)
    m.spawn(compute_loop([5 * MS]), name="b", core=0)
    m.run()
    assert m.cores[0].switch_ns > 0


def test_runnable_count(machine):
    machine.spawn(compute_loop([5 * MS]), name="a", core=0)
    machine.spawn(compute_loop([5 * MS]), name="b", core=0)
    machine.spawn(compute_loop([5 * MS]), name="c", core=0)
    machine.run(until=100 * US)
    # one running, two queued
    assert machine.scheduler.runnable_count(machine.cores[0]) == 2


def test_min_vruntime_follows_the_runqueue_head():
    """``min_vruntime`` rises to the smaller of the running thread's and
    the runqueue head's vruntime, so it never passes a waiting hog's:
    with two threads waiting, the head must be the heap's minimum."""
    m = make_machine(num_cores=1)
    hogs = [m.spawn(compute_loop([50 * MS]), name=n, core=0) for n in "abc"]
    cs = m.scheduler._cs[0]
    seen = []

    def sample():
        seen.append(cs.min_vruntime <= min(t.vruntime for t in hogs))
        m.sim.call_after(100 * US, sample)

    m.sim.call_after(100 * US, sample)
    m.run(until=20 * MS)
    assert len(seen) >= 190 and all(seen)


def test_wake_from_own_body_preempts_at_the_next_action():
    """A running thread that wakes a higher-priority thread on its own
    core keeps the CPU until its body reaches its next action; the
    woken thread then preempts it (Linux's need_resched)."""
    m = make_machine(num_cores=1)
    m.enable_checks()
    log = []

    def urgent(kt):
        yield Suspend()
        log.append(("urgent", m.now))
        yield Compute(10 * US)
        yield Exit()

    def waker(kt):
        yield Compute(50 * US)
        urgent_thread.wake()
        log.append(("waker", m.now))
        yield Compute(1 * MS)
        yield Exit()

    urgent_thread = m.spawn(urgent, name="urgent", core=0, nice=-20)
    w = m.spawn(waker, name="waker", core=0, nice=19)
    m.run()
    assert [name for name, _ in log] == ["waker", "urgent"]
    # the urgent thread ran right after the context switch, not after
    # the waker's 1 ms chunk
    assert log[1][1] - log[0][1] < 20 * US
    assert w.preemptions == 1
    assert w.state is ThreadState.DEAD
    assert m.checks.ok, m.checks.report()


def test_settle_idle_keeps_an_irq_window_busy(machine):
    """An IRQ handler window still in flight keeps the core busy even
    if another handler's callback asks to settle idle."""
    core = machine.cores[1]
    sched = machine.scheduler
    machine.sim.call_after(1 * MS, core.inject_irq_time, 300 * US)
    machine.sim.call_after(1 * MS + 100 * US, sched.settle_idle, core)
    machine.run(until=1 * MS + 200 * US)
    assert core.is_busy
    machine.run(until=5 * MS)
    assert not core.is_busy
    assert core.busy_ns == 300 * US


def test_yield_keeps_pending_irq_time_on_the_core(machine):
    """Stolen IRQ time still pending when a thread yields elapses as an
    idle-context window before the next dispatch (busy time conserved)."""
    core = machine.cores[0]

    def body(kt):
        yield BusySpin(machine.now + 100 * US)
        yield YieldCpu()
        yield Compute(10 * US)
        yield Exit()

    t = machine.spawn(body, name="spinner", core=0)
    # lands 10 us before the spin ends: 40 us of it is still to run
    machine.sim.call_after(90 * US, core.inject_irq_time, 50 * US)
    machine.run()
    busy = core.total_busy_ns()
    assert busy == t.cputime_ns + core.irq_ns + core.switch_ns \
        + core.exit_stall_ns
    assert core.irq_ns == 50 * US
