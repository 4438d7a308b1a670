"""Equivalence of the live event core and the frozen heap loop.

The live core (:class:`repro.sim.core.Simulator`) must be observationally
identical to the frozen reference loop
(:class:`repro.sim.reference.HeapSimulator`): same fire order — global
``(time, seq)``, FIFO among same-time events — and the same next due
time after every ``run(until)``, for any interleaving of schedules,
cancels, stops and single steps, including re-entrant scheduling from
inside callbacks and compactions that run while a callback holds the
loop.  The live core's ``pending`` must also count exactly the handles
that are neither fired nor cancelled (the reference counts its
tombstones too).  Hypothesis drives random programs through both
engines; the golden test pins a whole rendered figure across engine
changes.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import _COMPACT_MIN, Simulator
from repro.sim.reference import HeapSimulator

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# one scripted action per scheduled callback: how far ahead to schedule
# (0 .. 30 ms, from same-instant chains to far-future timers), how many
# children each callback spawns, and which previously-created handles
# get cancelled
_DELAYS = st.integers(min_value=0, max_value=30_000_000)
_ACTIONS = st.lists(
    st.tuples(
        _DELAYS,
        st.integers(min_value=0, max_value=3),      # children per fire
        st.lists(st.integers(min_value=0, max_value=200), max_size=3),
    ),
    min_size=1,
    max_size=60,
)
# a mass cancel: when it fires, how far ahead its ballast lands, and
# which of the then-outstanding handles survive.  At least 75 ballast
# entries and at most 10 survivors cancel more than _COMPACT_MIN handles
# and leave tombstones outnumbering live entries, so the live core
# compacts inside the callback
_MASS = st.tuples(
    st.integers(min_value=0, max_value=30_000_000),
    st.lists(_DELAYS, min_size=_COMPACT_MIN + 11, max_size=120),
    st.frozensets(st.integers(min_value=0, max_value=120), max_size=10),
)


def _execute(sim, actions, until, stop_at, steps=0, mass=None):
    """Run one scripted program on ``sim``.

    The first ``steps`` callbacks fire through :meth:`step`, the rest
    through ``run(until)``.  ``mass`` is ``(when, ballast, keep)``: a
    callback due at ``when`` schedules one entry per ``ballast`` delay,
    then cancels every outstanding handle whose index among them is not
    in ``keep``.

    Returns the fire log ``(time, action_id)``, the ``step()`` results,
    the final clock, ``peek()`` after the run, and the number of handles
    neither fired nor cancelled.
    """
    log = []
    handles = []

    def fire(action_id):
        log.append((sim.now, action_id))
        if stop_at is not None and len(log) >= stop_at:
            sim.stop()
            return
        if len(log) >= 400:   # bound the program: no infinite 0-delay chains
            return
        delay, children, cancels = actions[action_id % len(actions)]
        for c in range(children):
            child_id = action_id * 7 + c + 1
            handles.append(sim.call_after(delay + c, fire, child_id))
        for idx in cancels:
            if idx < len(handles):
                handles[idx].cancel()

    def mass_cancel(ballast, keep):
        log.append((sim.now, "mass"))
        for j, delay in enumerate(ballast):
            handles.append(sim.call_after(delay, fire, -j - 1))
        outstanding = [h for h in handles if not (h.fired or h.cancelled)]
        for i, handle in enumerate(outstanding):
            if i not in keep:
                handle.cancel()

    for i, (delay, _children, _cancels) in enumerate(actions):
        handles.append(sim.call_after(delay, fire, i))
    # kept out of ``handles`` so no scripted cancel can disarm it
    unreachable = []
    if mass is not None:
        when, ballast, keep = mass
        unreachable.append(sim.call_at(when, mass_cancel, ballast, keep))
    stepped = [sim.step() for _ in range(steps)]
    sim.run(until=until)
    live = sum(1 for h in handles + unreachable
               if not (h.fired or h.cancelled))
    return log, stepped, sim.now, sim.peek(), live


def _count_compactions(sim):
    """Record, for each compaction of ``sim``, whether a run was active."""
    seen = []
    compact = sim._compact

    def counted():
        seen.append(sim._running)
        compact()

    sim._compact = counted
    return seen


def _assert_engines_agree(actions, until, stop_at, steps=0, mass=None):
    new = Simulator()
    compactions = _count_compactions(new)
    new_log, new_stepped, new_now, new_peek, live = _execute(
        new, actions, until, stop_at, steps, mass)
    old_log, old_stepped, old_now, old_peek, _ = _execute(
        HeapSimulator(), actions, until, stop_at, steps, mass)
    assert new_log == old_log
    assert new_stepped == old_stepped
    assert new_now == old_now
    assert new_peek == old_peek
    assert new.pending == live
    # the counters that trigger compaction match what the heap holds
    assert len(new._heap) == new.pending + new._dead
    return new_log, compactions


@settings(max_examples=60, deadline=None)
@given(actions=_ACTIONS,
       until=st.one_of(st.none(), st.integers(0, 40_000_000)),
       stop_at=st.one_of(st.none(), st.integers(1, 120)),
       steps=st.integers(0, 8))
def test_property_fire_order_matches_heap(actions, until, stop_at, steps):
    _assert_engines_agree(actions, until, stop_at, steps)


@settings(max_examples=30, deadline=None)
@given(actions=_ACTIONS,
       until=st.one_of(st.none(), st.integers(30_000_000, 40_000_000)),
       mass=_MASS)
def test_property_compaction_mid_run_matches_heap(actions, until, mass):
    """A callback that cancels more than ``_COMPACT_MIN`` outstanding
    handles compacts the live core while ``run`` holds its heap; the
    fire order must not notice.  ``until`` is never before the mass
    cancel, which nothing can disarm, so every program compacts."""
    _log, compactions = _assert_engines_agree(actions, until, None, mass=mass)
    assert compactions and all(compactions)


@settings(max_examples=30, deadline=None)
@given(actions=_ACTIONS, until=st.integers(0, 40_000_000))
def test_property_resumed_runs_match_heap(actions, until):
    """Scheduling continues correctly across a run(until)/run() boundary
    (entries scheduled from the paused clock must still fire in global
    order)."""
    def split_run(sim):
        log = []
        for i, (delay, _c, _x) in enumerate(actions):
            sim.call_after(delay, lambda i=i: log.append((sim.now, i)))
        sim.run(until=until)
        paused_at = sim.peek()
        # schedule more from the paused clock, then drain fully
        for i, (delay, _c, _x) in enumerate(actions):
            sim.call_after(delay // 2, lambda i=i: log.append((sim.now, -i)))
        sim.run()
        return log, paused_at, sim.peek()

    assert split_run(Simulator()) == split_run(HeapSimulator())


def test_fig7_byte_identical_to_pre_calendar_golden():
    """Whole-figure witness: fig7 rendered from a pinned seed matches the
    output captured with the pre-calendar heap core, byte for byte."""
    from repro.campaign import render_figure, run_figure

    with open(os.path.join(_GOLDEN, "fig7_scale025_seed2020.txt")) as fh:
        golden = fh.read()
    text = render_figure("fig7", run_figure("fig7", scale=0.25, seed=2020))
    assert text == golden
