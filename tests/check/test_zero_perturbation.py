"""Enabling the monitors must not move a single packet or RNG draw.

The registry is a passive observer: it schedules no events and draws no
randomness, so a monitored run and an unmonitored run of the same
deployment are bit-identical — including the final state of every RNG
stream, which would diverge on the first extra draw."""

from repro import config
from repro.check import MONITORS
from repro.core.tuning import FixedTuner
from repro.harness.experiment import run_dpdk, run_metronome
from repro.sim.units import US

from tests.conftest import poisson


def _rng_states(machine):
    streams = machine.streams
    py = {name: s.getstate() for name, s in streams._streams.items()}
    np_ = {name: g.bit_generator.state
           for name, g in streams._np_streams.items()}
    return py, np_


def _metronome_fingerprint(checks):
    res = run_metronome(
        poisson(2_000_000, seed=11, name="zp"),
        duration_ms=10,
        cfg=config.SimConfig(seed=11, os_noise=True),
        tuner=FixedTuner(ts_ns=10 * US, tl_ns=500 * US),
        num_threads=3,
        checks=checks,
    )
    return (
        res.offered, res.delivered, res.drops,
        res.cycles, res.busy_tries,
        round(res.rho, 12),
        round(res.latency.mean(), 6),
        round(res.cpu_utilization, 12),
        round(res.energy_j, 9),
        _rng_states(res.machine),
    ), res


def test_monitors_do_not_perturb_metronome():
    plain, plain_res = _metronome_fingerprint(checks=False)
    monitored, mon_res = _metronome_fingerprint(checks=True)
    assert plain == monitored
    # and the monitored run actually watched something
    reg = mon_res.machine.checks
    assert plain_res.machine.checks is None
    assert reg.total_checked > 1000
    assert reg.ok, reg.report()


def test_monitors_do_not_perturb_dpdk():
    def fingerprint(checks):
        res = run_dpdk(
            2_000_000, duration_ms=8,
            cfg=config.SimConfig(seed=5, os_noise=True), checks=checks,
        )
        return (res.offered, res.delivered, res.drops,
                round(res.cpu_utilization, 12), round(res.energy_j, 9),
                _rng_states(res.machine))

    assert fingerprint(False) == fingerprint(True)


def test_full_run_exercises_every_monitor_family():
    """A noisy Metronome run must feed every monitor family — a hook
    that silently stopped being called would make its invariant
    vacuous."""
    _, res = _metronome_fingerprint(checks=True)
    reg = res.machine.checks
    for name in MONITORS:
        assert reg.checked[name] > 0, f"monitor {name} never consulted"
