"""Shared fixtures and helpers for the test suite.

Helpers here are imported explicitly (``from tests.conftest import
make_machine``) so each test file states its dependencies; fixtures are
picked up by pytest as usual.
"""

from __future__ import annotations

import sys

import pytest

from repro.config import SimConfig
from repro.core.metronome import MetronomeGroup
from repro.core.tuning import AdaptiveTuner
from repro.dpdk.app import CountingApp
from repro.kernel.machine import Machine
from repro.nic.rxqueue import RxQueue
from repro.nic.traffic import CbrProcess, PoissonProcess
from repro.sim.rng import RandomStreams
from repro.sim.units import US


def pytest_runtest_setup(item):
    """Skip ``no_settrace`` tests under a line tracer.

    ``tools/coverage.py`` runs the suite with a ``sys.settrace`` hook,
    which slows traced Python code several-fold — but *unevenly*: the
    calendar-queue hot loop is pure Python while the heap baseline
    leans on C-level ``heapq``, so wall-clock ratio asserts (bench
    speedups) can flip under tracing while meaning nothing.  Tests that
    assert on timing mark themselves ``no_settrace``; a coverage run
    skips them, a plain pytest run executes them.  If a marked test
    fails, re-check under plain pytest before chasing the failure.
    """
    if item.get_closest_marker("no_settrace") is None:
        return
    if sys.gettrace() is not None:
        pytest.skip("timing-sensitive assert: settrace coverage skews "
                    "wall-clock ratios (run under plain pytest)")


@pytest.fixture
def machine() -> Machine:
    """A quiet 4-core machine (no OS noise) for deterministic tests."""
    return Machine(SimConfig(num_cores=4, os_noise=False, seed=1234))


@pytest.fixture
def noisy_machine() -> Machine:
    """A machine with OS noise enabled."""
    return Machine(SimConfig(num_cores=4, os_noise=True, seed=1234))


@pytest.fixture
def streams() -> RandomStreams:
    """A deterministic RNG-stream factory (fixed seed)."""
    return RandomStreams(1234)


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    """A throwaway results tree, also exported via REPRO_RESULTS_DIR so
    code that consults :func:`repro.campaign.artifacts.default_results_dir`
    lands in it too."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


def make_machine(**overrides) -> Machine:
    """Helper for tests that need custom configs."""
    defaults = dict(num_cores=4, os_noise=False, seed=1234)
    defaults.update(overrides)
    return Machine(SimConfig(**defaults))


def poisson(rate, seed=17, name="arrivals") -> PoissonProcess:
    """A Poisson arrival process on its own derived numpy stream."""
    return PoissonProcess(rate, RandomStreams(seed).numpy_stream(name))


def rng_states(machine):
    """Final state of every Python and numpy stream of ``machine``: one
    extra draw anywhere makes two runs' states differ."""
    streams = machine.streams
    py = {name: s.getstate() for name, s in streams._streams.items()}
    np_ = {name: g.bit_generator.state
           for name, g in streams._np_streams.items()}
    return py, np_


def run_fingerprint(res):
    """Everything a runner result reports, latency samples and final
    RNG states included: equal fingerprints mean bit-identical runs."""
    return (res.offered, res.delivered, res.drops, res.cpu_utilization,
            res.energy_j, res.latency.samples(), rng_states(res.machine))


def build_group(machine, rate=1_000_000, m=3, **kwargs):
    """One CBR-fed RxQueue plus a started MetronomeGroup of ``m``
    threads — the standard small deployment used across test modules."""
    q = RxQueue(machine.sim, CbrProcess(rate), sample_every=64)
    kwargs.setdefault("tuner", AdaptiveTuner(
        vbar_ns=10 * US, tl_ns=500 * US, m=m, initial_rho=0.3))
    group = MetronomeGroup(machine, [q], CountingApp(),
                           num_threads=m, cores=list(range(m)), **kwargs)
    group.start()
    return q, group
