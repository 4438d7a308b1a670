"""Enabling the monitors must not move a single packet or RNG draw.

The registry is a passive observer: it schedules no events and draws no
randomness, so a monitored run and an unmonitored run of the same
deployment are bit-identical — including the final state of every RNG
stream, which would diverge on the first extra draw.  Every receiver
the shared runner pipeline builds is covered, the 4-queue scale-out
deployment included."""

import pytest

from repro import config
from repro.check import MONITORS
from repro.core.tuning import FixedTuner
from repro.harness.experiment import run_dpdk, run_metronome, run_xdp
from repro.harness.scale import run_metronome_scaled
from repro.sim.units import US

from tests.conftest import poisson, run_fingerprint


def _metronome(checks):
    return run_metronome(
        poisson(2_000_000, seed=11, name="zp"),
        duration_ms=10,
        cfg=config.SimConfig(seed=11, os_noise=True),
        tuner=FixedTuner(ts_ns=10 * US, tl_ns=500 * US),
        num_threads=3,
        checks=checks,
    )


MONITORED_RUNNERS = [
    pytest.param(_metronome, id="metronome"),
    pytest.param(
        lambda checks: run_dpdk(
            2_000_000, duration_ms=8,
            cfg=config.SimConfig(seed=5, os_noise=True), checks=checks),
        id="dpdk"),
    pytest.param(
        lambda checks: run_xdp(
            2_000_000, duration_ms=8,
            cfg=config.SimConfig(seed=5, os_noise=True), num_queues=2,
            checks=checks),
        id="xdp"),
    pytest.param(
        lambda checks: run_metronome_scaled(
            4, 3, gbps=2.0, duration_ms=6, seed=5, checks=checks),
        id="scaled"),
]


@pytest.mark.parametrize("runner", MONITORED_RUNNERS)
def test_monitors_do_not_perturb(runner):
    plain = runner(checks=False)
    monitored = runner(checks=True)
    assert run_fingerprint(plain) == run_fingerprint(monitored)
    for extra in ("cycles", "busy_tries", "rho", "irqs"):
        assert getattr(plain, extra, None) == getattr(monitored, extra, None)
    # and the monitored run actually watched something
    reg = monitored.machine.checks
    assert plain.machine.checks is None
    assert reg.total_checked > 1000
    assert reg.ok, reg.report()


def test_full_run_exercises_every_monitor_family():
    """A noisy Metronome run must feed every monitor family — a hook
    that silently stopped being called would make its invariant
    vacuous."""
    reg = _metronome(checks=True).machine.checks
    for name in MONITORS:
        assert reg.checked[name] > 0, f"monitor {name} never consulted"
