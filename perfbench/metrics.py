"""The benchmark's metric catalogue: names, units, direction, bounds.

``BENCHMARK.json`` at the repository root lists the same metrics;
``test_perfbench.py`` keeps the two in step.  Each per-layer metric
records the end-to-end metric it should move and on which workload
(``moves``), so later changes can cite metrics by name.

Host metrics (``sim_pkts_per_s``, ``setup_s``, ``peak_rss_mb``, every
``*.self_s``, ``sim.ns_per_event``, ``traffic.generate_s`` and
``trace_overhead``) are measured on the host; its times are in
reference seconds (see ``reference.py``).  The others come from the
deterministic simulation and repeat exactly for a given seed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end only: share of the parent's median the metric may
    #: worsen by before a change counts as a regression
    bound: Optional[float] = None
    #: per-layer only: the end-to-end metric it should move, and where
    moves: str = ""


#: measured with tracing off, one set per workload run
END_TO_END: Tuple[Metric, ...] = (
    # simulated packets offered per host CPU second (in reference
    # seconds, see reference.py) of the simulation run, set-up excluded;
    # the median over the run's repetitions
    Metric("sim_pkts_per_s", "pkt/s", "higher", 0.25),
    # host CPU time (reference seconds) from the seed to the first
    # simulated event; the median of many builds spread over the run.
    # Largest bound: tiny builds are the noisiest host measurement
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    # simulated wire-to-wire latency of the timestamped packets
    # (every 256th, MoonGen style)
    Metric("lat_us.p50", "us", "lower", 0.15),
    Metric("lat_us.p99", "us", "lower", 0.25),
    # simulated CPU busy over the window, 1.0 = one core
    Metric("cpu_cores", "cores", "lower", 0.15),
    # delivered / offered packets: loss_frac's complement, which is
    # never 0 (loss_frac itself is 0 on every workload)
    Metric("delivered_frac", "ratio", "higher", 0.05),
    # simulated package energy over the window
    Metric("power_w", "W", "lower", 0.05),
)

_SIM = "sim_pkts_per_s"

#: measured by the separate traced run (``--trace 1``)
PER_LAYER: Tuple[Metric, ...] = (
    Metric("sim.self_s", "s", "lower",
           moves=f"{_SIM}: most on dpdk-10g, least on metronome-0.5g"),
    Metric("sim.calls", "count", "lower",
           moves=f"{_SIM}: callbacks dispatched, most per packet on dpdk-10g"),
    Metric("sim.events", "count", "lower",
           moves=f"{_SIM}: most on dpdk-10g, least on metronome-0.5g"),
    Metric("sim.cancels", "count", "lower",
           moves=f"{_SIM}: most on dpdk-10g, least on metronome-0.5g"),
    Metric("sim.ns_per_event", "ns", "lower",
           moves=f"{_SIM}: most on dpdk-10g, least on metronome-0.5g"),
    Metric("kernel.self_s", "s", "lower",
           moves=f"{_SIM} on metronome-0.5g and dpdk-10g"),
    Metric("kernel.calls", "count", "lower",
           moves=f"{_SIM} on metronome-0.5g and dpdk-10g"),
    Metric("kernel.sleep_calls", "count", "lower",
           moves=f"{_SIM} on metronome-0.5g (0 on dpdk-10g and xdp-trace)"),
    Metric("kernel.wakeups", "count", "lower",
           moves="lat_us.p50 and power_w on metronome-0.5g"),
    Metric("kernel.cstate_exit_us", "us", "lower",
           moves="lat_us.p50 and power_w on metronome-0.5g"),
    Metric("kernel.dispatch_wait_us", "us", "lower",
           moves="lat_us.p99 on metronome-0.5g (most on scale-100g)"),
    Metric("nic.self_s", "s", "lower",
           moves=f"{_SIM}: large on dpdk-10g, small on metronome-0.5g"),
    Metric("nic.calls", "count", "lower",
           moves=f"{_SIM}: large on dpdk-10g, small on metronome-0.5g"),
    Metric("nic.rx_bursts", "count", "lower",
           moves=f"{_SIM}: large on dpdk-10g, small on metronome-0.5g"),
    Metric("nic.pkts_per_burst", "pkt", "higher",
           moves=f"{_SIM}: large on dpdk-10g, small on metronome-0.5g"),
    Metric("nic.empty_burst_frac", "ratio", "lower",
           moves=f"{_SIM}: large on dpdk-10g, small on metronome-0.5g"),
    Metric("nic.drops", "count", "lower",
           moves="delivered_frac on every workload (no drops today)"),
    Metric("nic.irqs", "count", "lower",
           moves=f"{_SIM} and cpu_cores on xdp-trace"),
    Metric("traffic.self_s", "s", "lower",
           moves=f"{_SIM} on xdp-trace, near nothing on the CBR workloads"),
    Metric("traffic.calls", "count", "lower",
           moves=f"{_SIM} on xdp-trace, near nothing on the CBR workloads"),
    Metric("traffic.generate_s", "s", "lower",
           moves="setup_s on xdp-trace"),
    Metric("core.self_s", "s", "lower",
           moves=f"{_SIM} and cpu_cores on metronome-0.5g (most on "
                 "scale-100g; no core on dpdk-10g and xdp-trace)"),
    Metric("core.calls", "count", "lower",
           moves=f"{_SIM} and cpu_cores on metronome-0.5g"),
    Metric("core.wake_rounds", "count", "lower",
           moves=f"{_SIM} and cpu_cores on metronome-0.5g"),
    Metric("core.busy_try_frac", "ratio", "lower",
           moves=f"{_SIM} and cpu_cores on metronome-0.5g"),
    Metric("core.vacation_us", "us", "lower",
           moves="lat_us.p50 and cpu_cores on metronome-0.5g"),
    Metric("core.ts_us", "us", "higher",
           moves="lat_us.p50 and cpu_cores on metronome-0.5g"),
    Metric("dpdk.self_s", "s", "lower", moves=f"{_SIM} on dpdk-10g only"),
    Metric("dpdk.calls", "count", "lower", moves=f"{_SIM} on dpdk-10g only"),
    Metric("xdp.self_s", "s", "lower", moves=f"{_SIM} on xdp-trace only"),
    Metric("xdp.calls", "count", "lower", moves=f"{_SIM} on xdp-trace only"),
    Metric("apps.self_s", "s", "lower",
           moves=f"{_SIM} on dpdk-10g (at most 8% anywhere)"),
    Metric("apps.calls", "count", "lower",
           moves=f"{_SIM} on dpdk-10g (at most 8% anywhere)"),
    Metric("metrics.self_s", "s", "lower", moves=f"{_SIM} on every workload"),
    Metric("metrics.calls", "count", "lower",
           moves=f"{_SIM} on every workload"),
    Metric("metrics.samples", "count", "higher",
           moves="lat_us.p99: the latency samples behind it"),
    Metric("trace_overhead", "ratio", "lower",
           moves="none: traced over untraced host CPU time, minus 1"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
