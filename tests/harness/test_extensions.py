"""Smoke tests for extension/ablation scenarios (short durations).

The bidirectional, multi-queue and SMT set-ups are pinned to their
exact results, so rewiring how they are built cannot move a figure.
"""

from dataclasses import asdict

from repro.harness import extensions as ext


def test_role_rotation_shares():
    r = ext.role_rotation(duration_ms=25)
    assert r.cycles > 100
    assert r.switches > 5
    assert abs(sum(r.share_by_thread.values()) - 1.0) < 1e-9
    assert all(share > 0.05 for share in r.share_by_thread.values())


def test_bidirectional():
    r = ext.bidirectional_throughput(duration_ms=20)
    assert abs(r.metronome_mpps_per_port - r.dpdk_mpps_per_port) < 0.2
    assert r.metronome_cpu < r.dpdk_cpu
    assert asdict(r) == {
        "metronome_mpps_per_port": 11.604425,
        "metronome_loss_pct": 0.0,
        "metronome_cpu": 0.91930555,
        "dpdk_mpps_per_port": 11.60985,
        "dpdk_loss_pct": 0.0,
        "dpdk_cpu": 2.0,
    }


def test_multiqueue_scaling():
    r = ext.multiqueue_scaling(num_queues=2, duration_ms=15)
    assert r["loss_pct"] < 0.1
    assert r["delivered_mpps"] > 28.0
    assert r["cpu_per_queue"] < 0.9
    assert r == {
        "num_queues": 2,
        "offered_mpps": 29.761866666666666,
        "delivered_mpps": 29.7338,
        "loss_pct": 0.014784018923544221,
        "cpu_total": 1.1428251333333332,
        "cpu_per_queue": 0.5714125666666666,
    }


def test_ablation_diversity():
    out = ext.ablation_diversity(duration_ms=20)
    assert out["equal"]["busy_try_fraction"] > out["diverse"]["busy_try_fraction"]
    assert out["equal"]["cpu"] > out["diverse"]["cpu"]


def test_ablation_adaptivity():
    out = ext.ablation_adaptivity(duration_s=0.3)
    assert set(out) == {"adaptive", "fixed_ts=10us", "fixed_ts=30us"}
    assert out["adaptive"]["loss_pct"] < 0.5


def test_ablation_alpha_orderings():
    rows = ext.ablation_alpha(alphas=(0.05, 1.0), duration_ms=120)
    by = {a: (settle, ripple) for a, settle, ripple in rows}
    assert by[1.0][0] < by[0.05][0]      # faster settling
    assert by[1.0][1] > by[0.05][1]      # more ripple


def test_appendix_b_rows():
    rows = ext.appendix_b_validation(rates_mpps=(5.0, 12.0), duration_ms=20)
    for _rate, measured_b, predicted_b, littles in rows:
        assert measured_b > 0
        assert abs(measured_b - predicted_b) / measured_b < 0.35
        assert 0.8 < littles < 1.2


def test_pacing_comparison_rows():
    rows = ext.pacing_comparison(rates_kpps=(10, 50), count=100)
    by = {(s, k): (err, jit, comp) for s, k, err, jit, comp in rows}
    assert by[("hr_sleep", 50)][2] > by[("nanosleep", 50)][2]


def test_smt_interference():
    r = ext.smt_interference(job_work_ms=15)
    assert r["dpdk_sibling"] > 1.3 * r["alone"]
    assert r["metronome_sibling"] < 1.3 * r["alone"]
    assert r == {
        "alone": 15.192582,
        "dpdk_sibling": 23.243355,
        "metronome_sibling": 16.027392,
    }
