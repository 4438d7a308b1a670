"""The poll path's integer fast paths agree with their slow references.

``tests/nic/reference.py`` keeps the ring and the lcore's pacing query
as they read before they became local integer arithmetic.  Hypothesis
drives the ring pair with one operation sequence and compares every
return value (or error) and every public field after every operation,
and the pacing pair over drawn queue and Tx states.  The sync
gate is checked against an ungated ``_tag_interval`` call, and each
receiver must call ``handle`` once per burst that carried tagged
packets.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.apps.flowatcher import FloWatcherApp
from repro.apps.ipsec import IpsecGatewayApp
from repro.apps.l3fwd import L3FwdApp
from repro.dpdk.app import CountingApp
from repro.dpdk.lcore import PollModeLcore
from repro.harness.experiment import run_dpdk, run_metronome, run_xdp
from repro.nic.ring import DescriptorRing
from repro.nic.rxqueue import RxQueue
from repro.nic.traffic import ArrivalProcess
from repro.sim.core import Simulator
from tests.conftest import make_machine
from tests.nic.reference import PropertyRing, next_wakeup


def _outcome(fn, *args):
    """``fn(*args)``, or the type of the error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def _ring_fields(ring):
    return (ring.head_seq, ring.tail_seq, ring.drops, ring.max_occupancy,
            ring.occupancy, ring.free, ring.accepted_total)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(config.MIN_RX_RING, config.MAX_RX_RING),
    ops=st.lists(st.tuples(st.sampled_from(("offer", "pop")),
                           st.integers(-2, 5000)), max_size=60),
)
def test_ring_matches_property_reference(capacity, ops):
    fast, ref = DescriptorRing(capacity), PropertyRing(capacity)
    for op, n in ops:
        assert _outcome(getattr(fast, op), n) == _outcome(getattr(ref, op), n)
        assert _ring_fields(fast) == _ring_fields(ref)


class _Paced(ArrivalProcess):
    """A process whose pacing answer is fixed (None: no next arrival)."""

    def __init__(self, when):
        self.when = when

    def time_for_count(self, t, k):
        return self.when


@settings(max_examples=200, deadline=None)
@given(
    whens=st.lists(st.one_of(st.none(), st.integers(0, 400_000)),
                   min_size=1, max_size=4),
    pending=st.lists(st.integers(0, 3), min_size=4, max_size=4),
    last_drain=st.integers(0, 300_000),
    now=st.integers(0, 400_000),
    needed=st.integers(1, 8),
)
def test_next_wakeup_matches_candidate_list(whens, pending, last_drain, now,
                                            needed):
    m = make_machine()
    queues = [RxQueue(m.sim, _Paced(w)) for w in whens]
    lcore = PollModeLcore(m, queues, CountingApp())
    for tx, p in zip(lcore.tx_buffers, pending):
        tx.pending = p
    lcore._last_drain = last_drain
    assert lcore._next_wakeup(now, needed) == next_wakeup(lcore, now, needed)


# ---------------------------------------------------------------------- #
# the sync gate
# ---------------------------------------------------------------------- #


class _Once(ArrivalProcess):
    """``n`` arrivals at the first advance, none after."""

    def __init__(self, n):
        self.n = n
        self.last_t = 0
        self.total = 0

    def advance(self, t1):
        n, self.n = self.n, 0
        self.total += n
        self.last_t = t1
        return n


def _queue(first_seq, n, k, accepted):
    """A queue about to take ``n`` arrivals numbered from ``first_seq``
    into a ring with room for exactly ``accepted`` of them."""
    sim = Simulator()
    sim.run(until=10_000)
    q = RxQueue(sim, _Once(n), sample_every=k,
                ring_size=config.MAX_RX_RING)
    q.arrived_total = first_seq
    q.ring.tail_seq = config.MAX_RX_RING - accepted if accepted < n else 0
    return q


def _tag_state(q):
    return ([(p.seq, p.arrival_ns, p.ring_seq, p.header) for p in q._tagged],
            q.tagged_drops)


@st.composite
def tag_intervals(draw):
    """``(first_seq, n, sample_every, accepted)``, with ``n`` often
    within two of the distance to the next multiple of ``sample_every``
    (the gate's boundary)."""
    k = draw(st.integers(1, 300))
    gap = draw(st.integers(0, k - 1))
    first_seq = draw(st.integers(1, 4000)) * k - gap
    n = draw(st.one_of(st.integers(max(1, gap - 2), gap + 2),
                       st.integers(1, config.MAX_RX_RING)))
    return first_seq, n, k, draw(st.integers(0, n))


@settings(max_examples=300, deadline=None)
@given(case=tag_intervals())
def test_sync_gate_skips_exactly_the_idle_tag_intervals(case):
    first_seq, n, k, accepted = case
    gated = _queue(first_seq, n, k, accepted)
    calls = []

    def recorded(*args):
        calls.append(args)
        RxQueue._tag_interval(gated, *args)

    gated._tag_interval = recorded
    assert gated.sync() == accepted

    ungated = _queue(first_seq, n, k, accepted)
    assert ungated.ring.offer(n) == accepted
    before = _tag_state(ungated)
    ungated._tag_interval(0, ungated.sim.now, first_seq, n, accepted)
    would_tag = _tag_state(ungated) != before

    assert bool(calls) == would_tag
    assert _tag_state(gated) == _tag_state(ungated)


# ---------------------------------------------------------------------- #
# tagged-only handlers
# ---------------------------------------------------------------------- #


def _count_bursts(tally):
    """A ``setup_hook`` that tallies every queue's bursts."""

    def hook(machine, _receiver):
        for q in machine.sim.rx_queues:
            def counted(burst=config.RX_BURST, _orig=q.rx_burst):
                n, tagged = _orig(burst)
                tally["full"] += n > 0
                tally["tagged"] += bool(tagged)
                tally["packets"] += len(tagged)
                return n, tagged

            q.rx_burst = counted

    return hook


class _CallCounting(CountingApp):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def handle(self, tagged):
        self.calls += 1
        super().handle(tagged)


@pytest.mark.parametrize("run", [
    lambda app, hook: run_dpdk(2_000_000, duration_ms=5, app=app,
                               setup_hook=hook),
    lambda app, hook: run_metronome(2_000_000, duration_ms=5, app=app,
                                    setup_hook=hook),
    lambda app, hook: run_xdp(2_000_000, duration_ms=5, app=app,
                              num_queues=2, setup_hook=hook),
], ids=["dpdk", "metronome", "xdp"])
def test_handle_called_once_per_tagged_burst(run):
    app = _CallCounting()
    tally = {"full": 0, "tagged": 0, "packets": 0}
    res = run(app, _count_bursts(tally))
    assert res.delivered > 0
    # most bursts carry no sampled packet, and those reach no handler
    assert 0 < tally["tagged"] < tally["full"]
    assert app.calls == tally["tagged"]
    assert app.tagged_seen == tally["packets"]


def test_every_shipped_app_ignores_an_empty_burst():
    for app in (L3FwdApp(), FloWatcherApp(), IpsecGatewayApp(),
                CountingApp()):
        before = (app.stats(), dict(vars(app)))
        app.handle([])
        assert (app.stats(), dict(vars(app))) == before

