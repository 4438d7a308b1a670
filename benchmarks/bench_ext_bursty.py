"""Extension: bursty (ON/OFF) traffic — Metronome's standing wakeups
keep burst loss near zero where XDP's cold interrupt path drops tens of
thousands of packets (paper §5.5's reactivity observation, generalized
beyond a single step burst)."""

from bench_util import emit

from repro import config
from repro.harness.experiment import run_metronome, run_xdp
from repro.harness.report import render_table
from repro.nic.traffic import OnOffProcess
from repro.sim.rng import RandomStreams
from repro.sim.units import US


def _run():
    rows = []
    # line-rate bursts, 200us ON / 600us OFF -> 25% duty, ~3.7 Mpps mean
    for system in ("metronome", "xdp"):
        if system == "metronome":
            process = OnOffProcess(
                config.LINE_RATE_PPS, 200 * US, 600 * US,
                RandomStreams(7).stream("bursty"),
            )
            res = run_metronome(process, duration_ms=60,
                                cfg=config.SimConfig(seed=7))
            rows.append((system, res.offered, res.drops,
                         res.loss_fraction * 100, res.cpu_utilization,
                         res.latency.percentile(99) / 1e3))
        else:
            # XDP with 4 queues, cold page pool, same aggregate pattern
            res = run_xdp(int(13.0e6), duration_ms=60,
                          cfg=config.SimConfig(seed=7),
                          num_queues=4, prewarmed=False)
            rows.append((system, res.offered, res.drops,
                         res.loss_fraction * 100, res.cpu_utilization,
                         res.latency.percentile(99) / 1e3))
    return rows


def test_ext_bursty_traffic(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit(
        "ext_bursty",
        render_table(
            "Extension — burst handling: Metronome vs cold XDP",
            ["system", "offered", "drops", "loss %", "cpu", "p99 us"],
            rows,
            note="Metronome: ON/OFF line-rate bursts; XDP: cold-start "
                 "sustained load (the §5.5 reactivity comparison)",
        ),
    )
    by = {r[0]: r for r in rows}
    # Metronome absorbs line-rate bursts with negligible loss ...
    assert by["metronome"][3] < 0.1
    # ... while consuming CPU proportional to the ~25% duty cycle
    assert by["metronome"][4] < 0.45
    # XDP's cold path drops tens of thousands before the pool warms
    assert by["xdp"][2] > 10_000
