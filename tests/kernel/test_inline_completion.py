"""Inline chunk completion, pinned against the calendar path.

When a thread's Compute/BusySpin chunk would end before any pending
event, the scheduler completes it in place (``Simulator.advance_to``)
instead of scheduling a completion callback.  The calendar path stays
the general path, and patching ``advance_to`` to refuse forces it
everywhere: that is the reference.  Hypothesis draws thread programs and
deployments (several threads per core with mixed nice values, an SMT
pair, the ``ondemand`` governor, a fault plan, a checkpoint pause) and
both paths must agree on every observable — per-thread and per-core
accounting, energy, ``events_scheduled``, checkpoint snapshots and
monitor results.  This is the calendar-vs-``HeapSimulator`` pattern of
``tests/sim/test_core_properties.py`` one layer up.

The drawn programs include tail-position wakes (an hrtimer expiry and an
XDP-style interrupt, whose callbacks end with the wake), which may
inline the woken thread's chunks.  The per-core speed cache is pinned
against the uncached formula.
"""

from contextlib import contextmanager
from functools import partial
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.faults.plan import FaultPlan, FaultSpec
from repro.kernel.power import core_power_w
from repro.kernel.thread import BusySpin, Compute, Exit, Suspend, YieldCpu
from repro.sim.core import SimulationError, Simulator
from repro.sim.units import MS, US

from tests.conftest import make_machine

NUM_CORES = 3
END_NS = 12 * MS


@contextmanager
def calendar_only():
    """Force the reference path: every inline completion is refused."""
    with mock.patch.object(Simulator, "advance_to",
                           lambda self, when: False):
        yield


@contextmanager
def counting_inlines(counter):
    """Count successful inline completions (the fast path really ran)."""
    real = Simulator.advance_to

    def advance_to(self, when):
        ok = real(self, when)
        counter[0] += ok
        return ok

    with mock.patch.object(Simulator, "advance_to", advance_to):
        yield


# ---------------------------------------------------------------------- #
# program generation
# ---------------------------------------------------------------------- #

_ACTION = st.one_of(
    st.tuples(st.just("compute"), st.integers(1, 300 * US)),
    st.tuples(st.just("spin"), st.integers(0, 300 * US)),
    # raw hrtimer + Suspend: the timer callback is the thread's wake,
    # a tail-position one (as hr_sleep arms it) or a plain kt.wake
    st.tuples(st.just("timer"),
              st.tuples(st.integers(0, 200 * US), st.booleans())),
    # an XDP-style interrupt on the thread's core after a delay, then
    # Suspend: handler time, then a tail-position wake from a callback
    st.tuples(st.just("irq"),
              st.tuples(st.integers(0, 200 * US), st.integers(1, 20 * US))),
    # the hr_sleep service: jittered preamble/postamble around a sleep
    st.tuples(st.just("hr_sleep"), st.integers(0, 200 * US)),
    st.tuples(st.just("yield"), st.just(0)),
    st.tuples(st.just("exit"), st.just(0)),
    # wake another thread, then carry on: the waker resumes at the wake
    # instant whatever the woken thread does
    st.tuples(st.just("wake"), st.integers(0, 5)),
)

_THREAD = st.tuples(
    st.integers(0, NUM_CORES - 1),                  # core
    st.sampled_from([-20, -5, 0, 5, 19]),           # nice
    st.lists(_ACTION, min_size=1, max_size=12),     # one loop pass
    st.booleans(),                                  # loop forever
)

_FAULTS = st.lists(
    st.sampled_from([
        FaultSpec(kind="irq_storm", start_ns=1 * MS, end_ns=6 * MS,
                  period_ns=150 * US, magnitude=0.3, cores=(0,)),
        FaultSpec(kind="core_stall", start_ns=2 * MS, end_ns=9 * MS,
                  period_ns=3 * MS, duration_ns=120 * US, cores=(1,)),
        FaultSpec(kind="timer_miss", start_ns=0, end_ns=END_NS,
                  magnitude=40 * US, probability=0.5),
        FaultSpec(kind="lost_wakeup", start_ns=3 * MS, end_ns=8 * MS,
                  probability=0.3),
        FaultSpec(kind="clock_drift", start_ns=0, end_ns=END_NS,
                  magnitude=0.1),
        FaultSpec(kind="antagonist", start_ns=4 * MS, end_ns=7 * MS,
                  cores=(2,)),
    ]),
    max_size=3,
    unique=True,
)

_DEPLOYMENT = st.fixed_dictionaries({
    "threads": st.lists(_THREAD, min_size=1, max_size=6),
    "governor": st.sampled_from(["performance", "ondemand"]),
    "smt": st.booleans(),
    "os_noise": st.booleans(),
    "faults": _FAULTS,
    "checkpoint_ns": st.one_of(st.none(), st.integers(1, END_NS - 1)),
    "seed": st.integers(0, 2**16),
})


def irq_wake(machine, thread, handler_ns, tail=True):
    """An interrupt for ``thread``, shaped like XdpQueueDriver's
    ``_deliver_irq``/``_wake_thread``: handler time on the thread's core
    (an idle-context window when the core is idle), then a calendar
    callback whose last acts are the wake (tail-position unless ``tail``
    is off) and ``settle_idle``."""
    core = thread.core
    scheduler = machine.scheduler

    def wake():
        scheduler.wake(thread, tail=tail)
        scheduler.settle_idle(core)

    core.inject_irq_time(handler_ns)
    machine.sim.call_after(handler_ns, wake)


def _body(machine, actions, forever):
    threads = machine.threads

    def body(kt):
        sim = machine.sim
        service = machine.sleep_service("hr_sleep")
        while True:
            for kind, arg in actions:
                if kind == "compute":
                    yield Compute(arg)
                elif kind == "spin":
                    yield BusySpin(sim.now + arg)
                elif kind == "timer":
                    delay, tail = arg
                    wake = (partial(machine.scheduler.wake, kt, tail=True)
                            if tail else kt.wake)
                    machine.hrtimers[kt.core.index].arm(sim.now + delay, wake)
                    yield Suspend()
                elif kind == "irq":
                    delay, handler_ns = arg
                    sim.call_after(delay, irq_wake, machine, kt, handler_ns)
                    yield Suspend()
                elif kind == "hr_sleep":
                    yield from service.call(kt, arg)
                elif kind == "yield":
                    yield YieldCpu()
                elif kind == "wake":
                    threads[arg % len(threads)].wake()
                else:
                    yield Exit()
            if not forever:
                return
            # every pass moves the clock, so a loop cannot spin in place
            yield Compute(1 * US)
    return body


def _observe(machine) -> dict:
    checks = machine.checks
    return {
        "threads": [
            (t.name, t.state.value, t.cputime_ns, t.vruntime, t.wakeups,
             t.preemptions, t.dispatch_latency_ns)
            for t in machine.threads
        ],
        "cores": [
            (c.total_busy_ns(), c.irq_ns, c.switch_ns, c.exit_stall_ns,
             c.freq)
            for c in machine.cores
        ],
        "energy_j": machine.power.peek_joules(),
        "events_scheduled": machine.sim.events_scheduled,
        "now": machine.sim.now,
        "snapshot": machine.snapshot().to_dict(),
        "checked": dict(checks.checked),
        "violations": [v.format() for v in checks.violations],
    }


def run_deployment(dep) -> list:
    """Run one drawn deployment; observations at the checkpoint pause
    (if any) and after quiesce."""
    machine = make_machine(
        num_cores=NUM_CORES,
        seed=dep["seed"],
        governor=dep["governor"],
        smt_pairs=[(0, 1)] if dep["smt"] else None,
        os_noise=dep["os_noise"],
    )
    machine.enable_checks()
    if dep["faults"]:
        machine.install_faults(FaultPlan(name="drawn",
                                         specs=tuple(dep["faults"])))
    for i, (core, nice, actions, forever) in enumerate(dep["threads"]):
        machine.spawn(_body(machine, actions, forever), name=f"t{i}",
                      core=core, nice=nice)
    observed = []
    if dep["checkpoint_ns"] is not None:
        machine.run(until=dep["checkpoint_ns"])
        observed.append(_observe(machine))
    machine.run(until=END_NS)
    machine.checks.quiesce()
    observed.append(_observe(machine))
    return observed


@settings(max_examples=60, deadline=None)
@given(dep=_DEPLOYMENT)
def test_property_inline_matches_calendar_path(dep):
    fast = run_deployment(dep)
    with calendar_only():
        reference = run_deployment(dep)
    assert fast == reference
    # ... and CPU time is conserved exactly (on both paths, then)
    assert not [v for v in fast[-1]["violations"] if "cpu/" in v]


def test_inline_path_is_exercised_and_identical():
    """A fixed mixed deployment: hundreds of chunks complete inline, and
    the outcome still matches the calendar path exactly."""
    dep = {
        "threads": [
            (0, 0, [("compute", 20 * US), ("spin", 15 * US),
                    ("hr_sleep", 50 * US)], True),
            (1, -5, [("compute", 5 * US), ("timer", (30 * US, True)),
                     ("yield", 0)], True),
            (1, 19, [("compute", 400 * US)], True),
            (2, 0, [("spin", 80 * US), ("compute", 3 * US),
                    ("irq", (40 * US, 2 * US)),
                    ("timer", (25 * US, False))], True),
        ],
        "governor": "ondemand",
        "smt": True,
        "os_noise": True,
        "faults": [],
        "checkpoint_ns": 5 * MS,
        "seed": 7,
    }
    inlined = [0]
    with counting_inlines(inlined):
        fast = run_deployment(dep)
    with calendar_only():
        reference = run_deployment(dep)
    assert fast == reference
    assert inlined[0] > 200
    assert fast[-1]["violations"] == []
    assert fast[-1]["checked"]["cpu"] > 0


def test_yield_loop_alone_on_a_core_keeps_the_stack_flat():
    """A thread that yields between chunks with nobody else runnable is
    re-dispatched synchronously; that dispatch must not nest one
    ``_advance`` per chunk on the inline path."""
    m = make_machine(num_cores=1)

    def body(kt):
        for _ in range(5000):
            yield Compute(100)
            yield YieldCpu()

    t = m.spawn(body, name="yielder", core=0)
    m.run()
    assert t.cputime_ns == 5000 * 100


# ---------------------------------------------------------------------- #
# Simulator.advance_to refusal conditions
# ---------------------------------------------------------------------- #

def _probe(sim, when, until=None, before=None):
    """Call ``advance_to(when)`` from a callback at t=0 inside run()."""
    got = []

    def cb():
        if before is not None:
            before()
        got.append(sim.advance_to(when))

    sim.call_at(0, cb)
    sim.run(until=until)
    return got[0]


def test_advance_to_succeeds_like_firing_an_entry():
    sim = Simulator()
    seq_before = []
    clock = []

    class Monitor:
        def on_execute(self, prev_now, when):
            clock.append((prev_now, when))

    def cb():
        seq_before.append(sim.events_scheduled)
        assert sim.advance_to(500)
        assert sim.now == 500

    sim.monitor = Monitor()
    sim.call_at(0, cb)
    sim.call_at(501, lambda: None)
    sim.run()
    # one seq consumed, the clock monitor saw the in-place execution
    assert sim.events_scheduled == seq_before[0] + 1
    assert (0, 500) in clock
    assert sim.now == 501


def test_advance_to_refuses_outside_run():
    sim = Simulator()
    assert sim.advance_to(10) is False
    assert sim.now == 0
    assert sim.events_scheduled == 0


def test_advance_to_refuses_inside_step():
    sim = Simulator()
    got = []
    sim.call_at(0, lambda: got.append(sim.advance_to(10)))
    sim.step()
    assert got == [False]


def test_advance_to_refuses_after_stop():
    sim = Simulator()
    assert _probe(sim, 10, before=sim.stop) is False
    assert sim.now == 0


def test_advance_to_refuses_past_until():
    sim = Simulator()
    assert _probe(sim, 101, until=100) is False
    sim = Simulator()
    assert _probe(sim, 100, until=100) is True


def test_advance_to_refuses_a_live_entry_at_exactly_when():
    sim = Simulator()
    sim.call_at(10, lambda: None)
    assert _probe(sim, 10) is False
    sim = Simulator()
    sim.call_at(10, lambda: None)
    assert _probe(sim, 9) is True


def test_advance_to_ignores_cancelled_entries():
    sim = Simulator()
    sim.call_at(10, lambda: None).cancel()
    assert _probe(sim, 20) is True


def test_advance_to_sees_entries_in_every_store():
    """Far-future heap, later ring buckets and the in-drain side heap
    all bound the advance."""
    for due in (5, 70_000, 300_000, 50_000_000):
        sim = Simulator()
        sim.call_at(due, lambda: None)
        assert _probe(sim, due) is False
        sim = Simulator()
        sim.call_at(due, lambda: None)
        assert _probe(sim, due - 1) is True


def test_advance_to_rejects_time_travel():
    sim = Simulator()
    err = []

    def cb():
        try:
            sim.advance_to(sim.now - 1)
        except SimulationError as exc:
            err.append(exc)

    sim.call_at(10, cb)
    sim.run()
    assert err


def test_refusal_keeps_event_count():
    """events_scheduled counts an inlined completion like the calendar
    entry it replaces."""
    def run():
        m = make_machine(num_cores=1)

        def body(kt):
            for _ in range(50):
                yield Compute(1_000)
                yield BusySpin(m.sim.now + 2_000)

        m.spawn(body, name="w", core=0)
        m.run()
        return m.sim.events_scheduled, m.threads[0].cputime_ns

    inlined = [0]
    with counting_inlines(inlined):
        fast = run()
    with calendar_only():
        reference = run()
    assert inlined[0] == 99        # all but the first chunk
    assert fast == reference
    assert fast[1] == 50 * 3_000


# ---------------------------------------------------------------------- #
# tail-position wakes
# ---------------------------------------------------------------------- #

def _sleeper(work_ns):
    """Sleep, then one chunk of work per wake."""
    def body(kt):
        while True:
            yield Suspend()
            yield Compute(work_ns)
    return body


def _inlines_after_irq_wake(tail, setup=None):
    """Run one sleeper on an idle core woken at 100 µs by
    :func:`irq_wake` (with or without ``tail``); return the inline count
    and the observables."""
    m = make_machine(num_cores=2)
    m.enable_checks()
    t = m.spawn(_sleeper(5 * US), name="s", core=0)
    if setup is not None:
        setup(m, t)
    m.sim.call_at(100 * US, irq_wake, m, t, 2 * US, tail)
    inlined = [0]
    with counting_inlines(inlined):
        m.run(until=1 * MS)
    m.checks.quiesce()
    return inlined[0], _observe(m)


def test_tail_wake_on_idle_core_inlines_first_chunk():
    inlined, fast = _inlines_after_irq_wake(tail=True)
    plain, reference = _inlines_after_irq_wake(tail=False)
    assert (inlined, plain) == (1, 0)
    assert fast == reference
    assert fast["threads"][0][2] == 5 * US        # cputime
    assert fast["violations"] == []


def test_tail_wake_onto_core_with_runnable_thread_does_not_inline():
    """A second thread keeps the runqueue non-empty: the tail flag
    changes nothing."""
    def hog(m, _t):
        def body(kt):
            while True:
                yield Compute(30 * US)
        m.spawn(body, name="hog", core=0, nice=19)

    tail = _inlines_after_irq_wake(tail=True, setup=hog)
    plain = _inlines_after_irq_wake(tail=False, setup=hog)
    assert tail == plain


def test_tail_wake_during_pending_irq_window_does_not_inline():
    """A handler still in flight on the core delays the dispatch: the
    woken thread starts from the calendar, tail flag or not."""
    def second_irq(m, _t):
        # a longer handler on core 0 overlapping the wake instant
        m.sim.call_at(101 * US, m.cores[0].inject_irq_time, 10 * US)

    tail = _inlines_after_irq_wake(tail=True, setup=second_irq)
    plain = _inlines_after_irq_wake(tail=False, setup=second_irq)
    assert tail == plain


def test_two_wakes_from_one_callback_do_not_inline():
    """A callback that wakes several threads (the watchdog's loop) uses
    plain wakes: each woken thread's first chunk waits on the calendar
    and the callback keeps its instant."""
    m = make_machine(num_cores=2)
    threads = [m.spawn(_sleeper(5 * US), name=f"s{i}", core=i)
               for i in range(2)]
    seen = []

    def wake_both():
        for t in threads:
            t.wake()
            seen.append(m.sim.now)

    def deliver():
        # idle-context handlers on both cores end at the wake instant,
        # so both dispatches are synchronous
        for core in m.cores:
            core.inject_irq_time(2 * US)
        m.sim.call_after(2 * US, wake_both)

    m.sim.call_at(100 * US, deliver)
    inlined = [0]
    with counting_inlines(inlined):
        m.run(until=1 * MS)
    assert inlined[0] == 0
    assert seen == [102 * US, 102 * US]
    assert [t.cputime_ns for t in threads] == [5 * US, 5 * US]


def test_settle_idle_after_inlined_chain_changes_nothing():
    m = make_machine(num_cores=1)
    t = m.spawn(_sleeper(5 * US), name="s", core=0)
    core = t.core
    sched = m.scheduler
    states = []

    def state():
        return (core.is_busy, core.idle_since, core.total_busy_ns(),
                m.power._energy_j, list(m.power._last_t), m.sim.now)

    def wake():
        sched.wake(t, tail=True)
        states.append(state())
        sched.settle_idle(core)
        states.append(state())
        # what the early return skips: re-marking idle at this instant
        core.mark_idle()
        states.append(state())

    def deliver():
        core.inject_irq_time(2 * US)
        m.sim.call_after(2 * US, wake)

    m.sim.call_at(100 * US, deliver)
    m.run(until=1 * MS)
    # the chain ran inline: the thread worked and went back to sleep
    assert states[0][:2] == (False, 107 * US) and states[0][-1] == 107 * US
    assert states[0] == states[1] == states[2]


# ---------------------------------------------------------------------- #
# one speed per core epoch
# ---------------------------------------------------------------------- #

def _reference_speed(core):
    """The uncached execution speed (the formula the cache replaced)."""
    freq = core.freq
    sib = core.smt_sibling
    if sib is not None and sib.is_busy:
        freq = int(freq * config.SMT_SLOWDOWN)
    return max(1, freq)


def _assert_speed_matches_reference(core):
    speed = _reference_speed(core)
    base = core.base_freq
    for n in (0, 1, 7, 999, 65_536, 10**6, 123_456_789):
        if speed == base:
            wall, work = n, n
        else:
            wall = (n * base + speed - 1) // speed
            wall = max(wall, 1) if n > 0 else 0
            work = (n * speed) // base
        assert core.work_to_wall(n) == wall
        assert core.wall_to_work(n) == work
    assert core.busy_w == core_power_w(True, core.freq, base)


def test_speed_cache_follows_direct_freq_writes():
    m = make_machine(num_cores=2)
    core = m.cores[0]
    for hz in (core.base_freq, core.base_freq // 3, 800_000_000,
               core.base_freq - 1, core.base_freq):
        core.freq = hz
        _assert_speed_matches_reference(core)


def test_speed_cache_follows_smt_sibling_flips():
    m = make_machine(num_cores=2, smt_pairs=[(0, 1)])
    core, sib = m.cores
    core.freq = core.base_freq // 2
    for flip in (sib.mark_busy, sib.mark_idle, sib.mark_busy,
                 core.mark_busy, sib.mark_idle):
        flip()
        _assert_speed_matches_reference(core)
        _assert_speed_matches_reference(sib)


def test_speed_cache_follows_ondemand_steps():
    m = make_machine(num_cores=2, governor="ondemand", smt_pairs=[(0, 1)])

    def bursty(kt):
        while True:
            yield Compute(3 * MS)
            m.hrtimers[kt.core.index].arm(
                m.sim.now + 9 * MS, partial(m.scheduler.wake, kt, tail=True))
            yield Suspend()

    m.spawn(bursty, name="b0", core=0)
    m.spawn(bursty, name="b1", core=1)
    freqs = set()
    for step in range(1, 13):
        m.run(until=step * 10 * MS + 1)
        freqs.update(c.freq for c in m.cores)
        for c in m.cores:
            _assert_speed_matches_reference(c)
    assert len(freqs) > 1    # the governor really stepped
