"""Tracing must be a pure observer: enabling it changes nothing.

The acceptance bar is exact — every reported number identical with and
without tracing, and the RNG streams must end a run in the same state
(no stream may be advanced by an instrumentation point) — for every
receiver the shared runner pipeline builds.
"""

import pytest

from repro import config
from repro.harness.experiment import run_dpdk, run_metronome, run_xdp

from tests.conftest import rng_states, run_fingerprint


def assert_trace_inert(off, on):
    assert run_fingerprint(off) == run_fingerprint(on)
    for extra in ("cycles", "busy_tries", "rho", "irqs"):
        assert getattr(off, extra, None) == getattr(on, extra, None)
    assert len(on.tracer.events) > 0
    assert len(off.tracer.events) == 0  # NULL_TRACER records nothing


def test_metronome_results_identical_with_and_without_tracing():
    off = run_metronome(5_000_000, duration_ms=12,
                        cfg=config.SimConfig(seed=21), trace=False)
    on = run_metronome(5_000_000, duration_ms=12,
                       cfg=config.SimConfig(seed=21), trace=True)
    assert_trace_inert(off, on)


def test_rng_streams_unperturbed_by_tracing():
    off = run_metronome(5_000_000, duration_ms=8,
                        cfg=config.SimConfig(seed=5), trace=False)
    on = run_metronome(5_000_000, duration_ms=8,
                       cfg=config.SimConfig(seed=5), trace=True)
    py_off, np_off = rng_states(off.machine)
    py_on, np_on = rng_states(on.machine)
    assert py_off.keys() == py_on.keys()
    assert (py_off, np_off) == (py_on, np_on)


BASELINE_RUNNERS = [
    pytest.param(
        lambda **kw: run_dpdk(
            5_000_000, duration_ms=8, cfg=config.SimConfig(seed=13), **kw),
        id="dpdk"),
    pytest.param(
        lambda **kw: run_xdp(
            5_000_000, duration_ms=8, cfg=config.SimConfig(seed=13),
            num_queues=2, **kw),
        id="xdp"),
]


@pytest.mark.parametrize("runner", BASELINE_RUNNERS)
def test_results_identical_with_and_without_tracing(runner):
    assert_trace_inert(runner(trace=False), runner(trace=True))
