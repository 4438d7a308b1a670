"""Smoke tests for the uniform experiment runners (short durations)."""

from repro import config
from repro.harness.experiment import run_dpdk, run_metronome, run_xdp
from repro.nic.traffic import CbrProcess


def quiet_cfg(**kw):
    kw.setdefault("seed", 7)
    return config.SimConfig(**kw)


def test_run_metronome_returns_full_record():
    res = run_metronome(2_000_000, duration_ms=15, cfg=quiet_cfg())
    assert res.offered > 0
    assert res.delivered > 0
    assert res.loss_fraction < 0.01
    assert 0 < res.cpu_utilization < 1.5
    assert res.cycles > 10
    assert res.mean_vacation_us > 0
    assert res.mean_busy_us > 0
    assert 0 <= res.rho <= 1
    assert res.ts_us > 0
    assert res.latency.count > 10
    assert res.energy_j > 0
    assert abs(res.throughput_mpps - 2.0) < 0.1


def test_run_metronome_accepts_process():
    proc = CbrProcess(1_000_000)
    res = run_metronome(proc, duration_ms=10, cfg=quiet_cfg())
    assert res.delivered > 0


def test_run_dpdk_pins_core():
    res = run_dpdk(2_000_000, duration_ms=15, cfg=quiet_cfg())
    assert res.cpu_utilization > 0.99
    assert res.loss_fraction < 0.01
    assert res.latency.count > 10


def test_run_xdp_proportional():
    res = run_xdp(2_000_000, duration_ms=15, cfg=quiet_cfg())
    assert 0.05 < res.cpu_utilization < 0.9
    assert res.loss_fraction < 0.01
    assert res.irqs > 0


def test_zero_rate_runs():
    met = run_metronome(0, duration_ms=10, cfg=quiet_cfg())
    assert met.offered == 0
    assert met.loss_fraction == 0.0
    dpdk = run_dpdk(0, duration_ms=10, cfg=quiet_cfg())
    assert dpdk.cpu_utilization > 0.99
    # noise off: the only CPU on the XDP cores would be the driver's
    xdp = run_xdp(0, duration_ms=10, cfg=quiet_cfg(os_noise=False))
    assert xdp.cpu_utilization == 0.0


def test_nanosleep_service_selectable():
    res = run_metronome(
        config.LINE_RATE_PPS, duration_ms=15,
        cfg=quiet_cfg(), sleep_service="nanosleep",
    )
    # nanosleep's 58us overhead overflows the 1024 ring (Table 3)
    assert res.loss_fraction > 0.005
