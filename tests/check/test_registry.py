"""Unit tests for the CheckRegistry: each monitor's hooks, subset
selection, the violation cap, and report formatting — all against stub
objects so every invariant can be broken on demand."""

import pytest

from repro.check.registry import MONITORS, CheckRegistry, Violation
from repro.kernel.nice import NICE_0_WEIGHT
from repro.kernel.thread import ThreadState


class StubSim:
    def __init__(self):
        self.now = 0


class StubCore:
    def __init__(self, index=0, busy=0, irq=0, switch=0, stall=0):
        self.index = index
        self.busy = busy
        self.irq_ns = irq
        self.switch_ns = switch
        self.exit_stall_ns = stall

    def total_busy_ns(self):
        return self.busy


class StubScheduler:
    """Per-core-index in-flight IRQ and unsettled time, set by tests."""

    def __init__(self):
        self.inflight = {}
        self.unsettled = {}

    def inflight_irq_ns(self, core):
        return self.inflight.get(core.index, 0)

    def unsettled_ns(self, core):
        return self.unsettled.get(core.index, 0)


class StubMachine:
    def __init__(self):
        self.sim = StubSim()
        self.threads = []
        self.cores = []
        self.scheduler = StubScheduler()


class StubThread:
    def __init__(self, name="t0", vruntime=0, weight=NICE_0_WEIGHT,
                 state=ThreadState.RUNNING, core=None, cputime_ns=0):
        self.name = name
        self.vruntime = vruntime
        self.weight = weight
        self.state = state
        self.core = core
        self.cputime_ns = cputime_ns


class StubCoreState:
    def __init__(self, min_vruntime=0, runqueue=()):
        self.min_vruntime = min_vruntime
        self.runqueue = list(runqueue)


class StubRing:
    def __init__(self, head_seq=0, drops=0, occupancy=0, capacity=1024,
                 max_occupancy=0):
        self.head_seq = head_seq
        self.drops = drops
        self.occupancy = occupancy
        self.capacity = capacity
        self.max_occupancy = max_occupancy


class StubQueue:
    def __init__(self, arrived_total, ring, index=0):
        self.arrived_total = arrived_total
        self.ring = ring
        self.index = index

    def sync(self):
        pass


class StubLock:
    def __init__(self, name="rxq-lock"):
        self.name = name


def registry(**kwargs):
    return CheckRegistry(StubMachine(), **kwargs)


# ---------------------------------------------------------------------- #
# construction / selection
# ---------------------------------------------------------------------- #

def test_unknown_monitor_rejected():
    with pytest.raises(ValueError, match="unknown monitor"):
        registry(monitors=["clock", "frobnicator"])


def test_subset_disables_other_hooks():
    reg = registry(monitors=["clock"])
    reg.on_timer_fire(0, expiry=100, now=50)   # early fire — but disabled
    reg.on_execute(prev_now=10, when=5)        # clock breach — enabled
    assert reg.checked["timer"] == 0
    assert reg.checked["clock"] == 1
    assert [v.monitor for v in reg.violations] == ["clock"]


def test_fresh_registry_is_ok_and_counts_nothing():
    reg = registry()
    assert reg.ok
    assert reg.total_checked == 0
    assert set(reg.checked) == set(MONITORS)


# ---------------------------------------------------------------------- #
# clock / timer / sleep
# ---------------------------------------------------------------------- #

def test_clock_monotonic():
    reg = registry()
    reg.on_execute(prev_now=10, when=10)
    reg.on_execute(prev_now=10, when=11)
    assert reg.ok
    reg.on_execute(prev_now=20, when=19)
    assert not reg.ok
    assert reg.violations[0].invariant == "monotonic"


def test_timer_no_early_fire():
    reg = registry()
    reg.on_timer_fire(0, expiry=100, now=100)
    reg.on_timer_fire(0, expiry=100, now=150)
    assert reg.ok
    reg.on_timer_fire(2, expiry=100, now=99)
    (v,) = reg.violations
    assert v.invariant == "no-early-fire"
    assert v.subject == "core2"


def test_sleep_early_return_only_flags_timer_driven_wakes():
    reg = registry()
    kt = StubThread("metronome-0")
    # external wake (watchdog / fault) before expiry: legal
    reg.on_sleep_wake(kt, expiry=100, now=50, timer_fired=False)
    assert reg.ok
    # the sleep's own timer fired, yet we returned early: breach
    reg.on_sleep_wake(kt, expiry=100, now=50, timer_fired=True)
    (v,) = reg.violations
    assert v.invariant == "no-early-return"
    assert v.subject == "metronome-0"


# ---------------------------------------------------------------------- #
# scheduler
# ---------------------------------------------------------------------- #

def test_sched_pick_is_min_and_floor():
    reg = registry()
    picked = StubThread("a", vruntime=1000)
    waiting = StubThread("b", vruntime=500)
    cs = StubCoreState(min_vruntime=400,
                       runqueue=[(500, 1, waiting)])
    reg.on_pick(picked, cs)
    assert any(v.invariant == "pick-is-min" for v in reg.violations)


def test_sched_fairness_floor():
    reg = registry()
    # vruntime far below the sleeper-fairness floor
    picked = StubThread("a", vruntime=0)
    cs = StubCoreState(min_vruntime=10**12, runqueue=[])
    reg.on_pick(picked, cs)
    assert [v.invariant for v in reg.violations] == ["fairness-floor"]


def test_sched_spread_ignores_other_weights_and_vacant_slots():
    reg = registry()
    picked = StubThread("a", vruntime=0)
    heavy = StubThread("hog", vruntime=10**12, weight=NICE_0_WEIGHT * 2)
    cs = StubCoreState(min_vruntime=0,
                       runqueue=[(10**12, 1, heavy)])
    reg.on_pick(picked, cs)
    assert reg.ok  # a different weight is exempt


def test_sched_fairness_spread_bound():
    reg = registry()
    picked = StubThread("a", vruntime=0)
    lagging = StubThread("b", vruntime=10**12)
    cs = StubCoreState(min_vruntime=0, runqueue=[(10**12, 1, lagging)])
    reg.on_pick(picked, cs)
    assert [v.invariant for v in reg.violations] == ["fairness-spread"]


# ---------------------------------------------------------------------- #
# locks
# ---------------------------------------------------------------------- #

def test_lock_mutual_exclusion():
    reg = registry()
    lock = StubLock()
    a, b = StubThread("a"), StubThread("b")
    reg.on_lock_acquire(lock, a)
    reg.on_lock_acquire(lock, b)
    assert [v.invariant for v in reg.violations] == ["mutual-exclusion"]


def test_lock_release_paths():
    reg = registry()
    lock = StubLock()
    a, b = StubThread("a"), StubThread("b")
    reg.on_lock_release(lock, a)                 # never acquired
    reg.on_lock_acquire(lock, a)
    reg.on_lock_release(lock, b)                 # wrong owner
    assert [v.invariant for v in reg.violations] == [
        "release-unheld", "release-by-owner"]


def test_lock_busy_without_holder():
    reg = registry()
    lock = StubLock()
    a = StubThread("a")
    reg.on_lock_acquire(lock, a)
    reg.on_lock_busy(lock, StubThread("b"))      # genuinely busy: fine
    assert reg.ok
    reg.on_lock_release(lock, a)
    reg.on_lock_busy(lock, StubThread("b"))      # free yet reported busy
    assert [v.invariant for v in reg.violations] == ["busy-without-holder"]


def test_quiesce_flags_lock_held_by_sleeper():
    reg = registry()
    lock = StubLock()
    runner = StubThread("drainer", state=ThreadState.RUNNING)
    sleeper = StubThread("zombie", state=ThreadState.SLEEPING)
    reg.on_lock_acquire(lock, runner)
    assert reg.quiesce() == []                   # a runner can still release
    reg.on_lock_release(lock, runner)
    reg.on_lock_acquire(lock, sleeper)
    added = reg.quiesce()
    assert [v.invariant for v in added] == ["eventually-released"]


# ---------------------------------------------------------------------- #
# NIC
# ---------------------------------------------------------------------- #

def test_ring_bounds_on_sync():
    reg = registry()
    q = StubQueue(0, StubRing(occupancy=5, capacity=4))
    reg.on_ring(q)
    assert [v.invariant for v in reg.violations] == ["ring-bounds"]


def test_quiesce_packet_conservation():
    reg = registry()
    good = StubQueue(100, StubRing(head_seq=90, drops=4, occupancy=6))
    reg.register_queue(good)
    assert reg.quiesce(consumed=90) == []
    bad = StubQueue(100, StubRing(head_seq=90, drops=4, occupancy=5),
                    index=1)
    reg.register_queue(bad)
    added = reg.quiesce()
    assert [v.invariant for v in added] == ["conservation"]


def test_quiesce_consumed_mismatch():
    reg = registry()
    q = StubQueue(100, StubRing(head_seq=90, drops=10, occupancy=0))
    reg.register_queue(q)
    added = reg.quiesce(consumed=80)
    assert [v.invariant for v in added] == ["delivered-matches-popped"]


# ---------------------------------------------------------------------- #
# CPU time
# ---------------------------------------------------------------------- #

def cpu_machine_registry():
    """One core whose 1000 ns busy span splits exactly into 600 ns of
    two threads' cputime + 200 IRQ + 100 switch + 100 C-state stall."""
    reg = registry(monitors=["cpu"])
    core = StubCore(busy=1000, irq=200, switch=100, stall=100)
    a = StubThread("a", core=core, cputime_ns=400)
    b = StubThread("b", core=core, cputime_ns=200)
    reg.machine.cores.append(core)
    reg.machine.threads.extend([a, b])
    return reg, core, a


def test_cpu_conservation_exact_on_leave():
    reg, core, a = cpu_machine_registry()
    reg.on_cpu_leave(a)
    assert reg.ok
    assert reg.checked["cpu"] == 2          # vruntime + core time
    core.busy += 1                          # a single leaked nanosecond
    reg.on_cpu_leave(a)
    (v,) = reg.violations
    assert (v.monitor, v.invariant, v.subject) == (
        "cpu", "conservation", "core0")
    assert "off by 1" in v.message


def test_cpu_conservation_counts_inflight_and_unsettled():
    reg, core, a = cpu_machine_registry()
    # 50 ns of charged IRQ time still to elapse, 30 ns run uncharged
    reg.machine.scheduler.inflight[0] = 50
    reg.machine.scheduler.unsettled[0] = 30
    core.busy = 1000 - 50 + 30
    reg.on_cpu_leave(a)
    assert reg.ok
    # a thread spawned later joins its core's sum
    reg.machine.threads.append(StubThread("c", core=core, cputime_ns=5))
    reg.on_cpu_leave(a)
    assert [v.invariant for v in reg.violations] == ["conservation"]


def test_cpu_vruntime_never_decreases():
    reg, core, a = cpu_machine_registry()
    a.vruntime = 100
    reg.on_cpu_leave(a)
    a.vruntime = 100
    reg.on_cpu_leave(a)
    assert reg.ok
    a.vruntime = 99
    reg.on_cpu_leave(a)
    (v,) = reg.violations
    assert (v.invariant, v.subject) == ("vruntime-monotone", "a")


def test_quiesce_audits_every_core_and_thread():
    reg, core, a = cpu_machine_registry()
    assert reg.quiesce() == []
    assert reg.checked["cpu"] == 3          # two threads + one core
    a.vruntime = 10
    reg.on_cpu_leave(a)
    a.vruntime = 5
    core.irq_ns += 7
    added = reg.quiesce()
    assert sorted(v.invariant for v in added) == [
        "conservation", "vruntime-monotone"]


def test_cpu_monitor_disabled_checks_nothing():
    reg = registry(monitors=["clock"])
    reg.on_cpu_leave(StubThread())
    assert reg.checked["cpu"] == 0
    assert reg.quiesce() == []


# ---------------------------------------------------------------------- #
# cap / formatting
# ---------------------------------------------------------------------- #

def test_violation_cap_counts_overflow():
    reg = registry(max_violations=3)
    for _ in range(5):
        reg.on_execute(prev_now=10, when=1)
    assert len(reg.violations) == 3
    assert reg.dropped == 2
    assert not reg.ok


def test_violation_format_and_report():
    reg = registry(monitors=["timer"])
    reg.machine.sim.now = 42
    reg.on_timer_fire(1, expiry=100, now=42)
    (v,) = reg.violations
    assert v == Violation("timer", "no-early-fire", 42, "core1",
                          v.message)
    assert v.format().startswith("[42 ns] timer/no-early-fire core1:")
    rep = reg.report()
    assert "1 VIOLATION(S)" in rep
    assert "core1" in rep
