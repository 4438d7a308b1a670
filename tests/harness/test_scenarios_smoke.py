"""Smoke coverage for every scenario builder at miniature durations.

The benchmarks run these at full length; here each must execute and
return structurally sound data quickly, so `pytest tests/` alone
exercises every experiment path.
"""

from repro.harness import scenarios as sc


def test_table1_smoke():
    rows = sc.table1_sleep_precision(samples=300, targets_us=(1, 50))
    assert len(rows) == 4
    for _svc, target, mean, p99 in rows:
        assert mean >= target
        assert p99 >= mean * 0.95


def test_fig2_smoke():
    pts = sc.fig2_cpu_energy(iterations=500, timeouts_us=(20,),
                             thread_counts=(1, 2))
    assert len(pts) == 4
    assert all(p.cpu_seconds > 0 and p.energy_j > 0 for p in pts)


def test_table2_smoke():
    rows = sc.table2_vbar_sweep(vbars_us=(10,), duration_ms=10)
    (vbar, v, b, nv, _loss), = rows
    assert vbar == 10
    assert v > 0 and b > 0 and nv > 0


def test_fig5_smoke():
    series = sc.fig5_vacation_pdf(m_values=(3,), duration_ms=40)
    s, = series
    assert len(s.bin_centers_us) == len(s.empirical_density)
    total_mass = sum(s.empirical_density) * (s.bin_centers_us[1]
                                             - s.bin_centers_us[0])
    assert 0.3 < total_mass <= 1.05


def test_fig6_smoke():
    rows = sc.fig6_latency_cpu(vbars_us=(5, 20), rates_gbps=(5.0,),
                               duration_ms=10)
    assert len(rows) == 2


def test_fig7_smoke():
    rows = sc.fig7_tl_sweep(tls_us=(100, 500), duration_ms=10)
    assert len(rows) == 2
    assert all(0 <= bt <= 1 for _tl, bt, _cpu in rows)


def test_fig8_smoke():
    rows = sc.fig8_m_sweep(m_values=(2, 4), duration_ms=10)
    assert len(rows) == 2


def test_fig9_smoke():
    rows = sc.fig9_latency_vs_m(m_values=(3,), rates_mpps=(5.0,),
                                duration_ms=10)
    (_rate, m, box), = rows
    assert m == 3
    assert box["q1"] <= box["median"] <= box["q3"]


def test_table3_smoke():
    rows = sc.table3_nanosleep_loss(cases=((1024, 10),), duration_ms=15)
    (ring, vbar, ns_loss, hr_loss), = rows
    assert ns_loss > hr_loss


def test_fig10_smoke():
    rows = sc.fig10_latency_boxplots(rates_gbps=(5.0,), vbars_us=(10,),
                                     duration_ms=10)
    assert len(rows) == 2   # both services


def test_fig11_smoke():
    result = sc.fig11_adaptation(duration_s=0.3, window_ms=25)
    assert result.total_delivered > 0
    assert result.series.values("ts_us")


def test_fig13_smoke():
    rows = sc.fig13_power_governors(rates_gbps=(0.0,),
                                    governors=("performance",),
                                    duration_ms=10)
    assert len(rows) == 2
    assert all(w > 0 for _g, _s, _r, w, _c in rows)


def test_fig15_smoke():
    rows = sc.fig15_apps(duration_ms=10)
    apps = {r[0] for r in rows}
    assert apps == {"ipsec", "flowatcher"}


def test_tuned_smoke():
    out = sc.tuned_low_latency(duration_ms=10)
    assert set(out) == {"metronome_default", "metronome_tuned", "dpdk"}
    assert out["metronome_tuned"]["mean_us"] < out["metronome_default"]["mean_us"]


def test_trace_phase_tracking_pinned():
    """Every system's rows, not just Metronome's: the determinism audit
    pins only the figure's first (Metronome) task."""
    rows = sc.trace_phase_tracking(duration_ms=25)
    assert rows == [
        ("metronome", "http_peak", 7.5, 2.976, 0.3539, 25.187, 46.284,
         27.008),
        ("metronome", "dns_burst", 3.75, 6.0451, 0.0441, 20.583, 39.387,
         24.14),
        ("metronome", "ssh_steady", 8.75, 0.8, 0.0, 31.214, 71.845, 28.992),
        ("metronome", "udp_light", 5.0, 0.2068, 0.0, 117.823, 151.669,
         29.601),
        ("dpdk", "http_peak", 7.5, 2.976, 0.0179, 11.241, 18.169, 0.0),
        ("dpdk", "dns_burst", 3.75, 6.0451, 0.0, 7.853, 12.217, 0.0),
        ("dpdk", "ssh_steady", 8.75, 0.8, 0.0143, 21.421, 33.981, 0.0),
        ("dpdk", "udp_light", 5.0, 0.2068, 0.0, 38.816, 86.204, 0.0),
        ("xdp", "http_peak", 7.5, 2.976, 0.1837, 36.63, 59.741, 0.0),
        ("xdp", "dns_burst", 3.75, 6.0451, 43.2529, 287.803, 321.288, 0.0),
        ("xdp", "ssh_steady", 8.75, 0.8, 0.0, 73.158, 320.334, 0.0),
        ("xdp", "udp_light", 5.0, 0.2068, 0.0, 12.353, 16.478, 0.0),
    ]
