"""The four receiver workloads and the measurement of one repetition.

Each workload turns a seed into generated inputs and hands them to one
of the simulator's public runners (``run_metronome``, ``run_dpdk``,
``run_xdp``, ``run_metronome_scaled``) directly — never through the
campaign's ``run_figure`` or its result cache, so a cached record can
never stand in for a run.  Traffic is an open loop: arrivals follow
their schedule whatever the receiver does, full rings drop, and latency
is timed from each packet's scheduled arrival.  On the host the loop is
closed: one simulation at a time, in one process and one thread.

A repetition splits host CPU time at the first simulated event: before
it is set-up (input generation, NIC/RSS sharding, app tables, the
machine and its threads), after it is the simulation run.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import dataclass
from time import process_time
from typing import Callable, Dict, List, Optional

from repro import config
from repro.harness import paper_data
from repro.harness.experiment import run_dpdk, run_metronome, run_xdp
from repro.harness.scale import run_metronome_scaled
from repro.nic.traffic import PoissonProcess, gbps_to_pps
from repro.sim.core import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import MS, SEC
from repro.traffic.generators import benign_phased, generate
from repro.traffic.replay import TraceReplayProcess

#: latency samples a run needs so p99 has at least 10 samples beyond it
MIN_SAMPLES = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    #: why the benchmark runs it (one line, mirrored in BENCHMARK.json)
    why: str
    #: simulated window; sized for at least MIN_SAMPLES latency samples
    duration_ms: int
    #: (seed, duration_ms) -> the generated inputs
    inputs: Callable[[int, int], object]
    #: (inputs, seed, duration_ms) -> the runner's result record
    run: Callable[[object, int, int], object]
    #: modelled metrics -> informational accuracy lines (never gated)
    accuracy: Callable[[Dict[str, float]], List[str]]


def _error(ours: float, paper: float) -> str:
    return f"{(ours - paper) / paper * 100:+.1f}%"


def _metronome_accuracy(m: Dict[str, float]) -> List[str]:
    paper = paper_data.METRONOME_CPU_AT_05GBPS
    return [f"cpu_cores {m['cpu_cores']:.4f} vs paper {paper} "
            f"(METRONOME_CPU_AT_05GBPS): {_error(m['cpu_cores'], paper)}"]


def _dpdk_accuracy(m: Dict[str, float]) -> List[str]:
    cpu = paper_data.FIG12B_CPU[10.0][1]
    lat = paper_data.DPDK_MIN_LATENCY_US
    return [
        f"cpu_cores {m['cpu_cores']:.4f} vs paper {cpu} (FIG12B_CPU at "
        f"10 Gbps): {_error(m['cpu_cores'], cpu)}",
        f"lat_us.mean {m['lat_us.mean']:.3f} vs paper {lat} "
        f"(DPDK_MIN_LATENCY_US): {_error(m['lat_us.mean'], lat)}",
    ]


def _unvalidated(_m: Dict[str, float]) -> List[str]:
    return ["unvalidated: the paper reports no value for this deployment"]


def _metronome_run(rate, seed: int, duration_ms: int):
    return run_metronome(rate, duration_ms=duration_ms,
                         cfg=config.SimConfig(seed=seed))


def _poisson_line_rate(seed: int, _duration_ms: int) -> PoissonProcess:
    return PoissonProcess(
        config.LINE_RATE_PPS,
        RandomStreams(seed).numpy_stream("perfbench.dpdk-10g"),
    )


def _dpdk_run(process, seed: int, duration_ms: int):
    # the lone poll-mode lcore runs on an isolated core: with kernel
    # daemons on it ~1% of samples land in their tail, p99 sits on that
    # knee and swings 8-26 us from seed to seed
    return run_dpdk(process, duration_ms=duration_ms,
                    cfg=config.SimConfig(seed=seed, os_noise=False))


def _scale_run(_inputs, seed: int, duration_ms: int):
    return run_metronome_scaled(64, 32, gbps=100.0, frame_len=64,
                                duration_ms=duration_ms, numa_nodes=2,
                                seed=seed)


def _benign_trace(seed: int, duration_ms: int) -> TraceReplayProcess:
    return TraceReplayProcess(
        generate(benign_phased(duration_ns=duration_ms * MS), seed))


def _xdp_run(process, seed: int, duration_ms: int):
    return run_xdp(process, duration_ms=duration_ms, num_queues=4,
                   cfg=config.SimConfig(seed=seed))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "metronome-0.5g",
        "The paper's deployment (1 shared queue, M=3 hr_sleep threads, "
        "adaptive T_S, l3fwd) at 0.5 Gbps 64B CBR, a Fig. 12 point; host "
        "time goes to sleep and wake.",
        400,
        lambda seed, _d: gbps_to_pps(0.5),
        _metronome_run,
        _metronome_accuracy,
    ),
    Workload(
        "dpdk-10g",
        "One poll-mode lcore at 14.88 Mpps 64B (Poisson, isolated core): "
        "per-poll cost dominates (scheduler, dpdk, nic); no sleep path "
        "and no Metronome core.",
        20,
        _poisson_line_rate,
        _dpdk_run,
        _dpdk_accuracy,
    ),
    Workload(
        "scale-100g",
        "64 RSS queues, 32 threads, 2 NUMA nodes at 100G 64B: the most "
        "core work (64-queue scan, trylock contention), the least room "
        "for a scheduler fast path.",
        24,
        lambda seed, _d: None,
        _scale_run,
        _unvalidated,
    ),
    Workload(
        "xdp-trace",
        "XDP on 4 queues fed the seeded benign trace, RSS-sharded: the "
        "only interrupt-driven receiver and trace replay, and the "
        "heaviest set-up.",
        150,
        _benign_trace,
        _xdp_run,
        _unvalidated,
    ),
)}


#: the workloads BENCHMARK.json gates on.  scale-100g stays runnable by
#: name, but its latency distribution is nearly flat around the median,
#: so lat_us.p50 swings 14-18% between seeds even at 48 ms simulated
#: (11 s of host CPU per repetition): too wide for any allowed bound
GATED = ("metronome-0.5g", "dpdk-10g", "xdp-trace")


# ---------------------------------------------------------------------- #
# one repetition
# ---------------------------------------------------------------------- #


class SetupDone(Exception):
    """Raised at the first simulated event by a set-up-only build."""


class FirstEvent:
    """Marks the end of set-up: the first entry into ``Simulator.run``.

    Patches ``Simulator.run`` for the ``with`` block (one extra call per
    ``run``, none per event) and restores it on exit.  With
    ``abort=True`` the run is refused, so only the build is timed.
    """

    def __init__(self, abort: bool = False):
        self.abort = abort
        self.t_first: Optional[float] = None
        self._orig = None

    def __enter__(self) -> "FirstEvent":
        orig = self._orig = Simulator.__dict__["run"]
        probe = self

        def run(sim, until=None):
            if probe.t_first is None:
                probe.t_first = process_time()
                if probe.abort:
                    raise SetupDone
            return orig(sim, until)

        Simulator.run = run
        return self

    def __exit__(self, *exc) -> None:
        Simulator.run = self._orig


@dataclass
class Rep:
    """What one repetition leaves behind (the result record is freed)."""

    setup_s: float
    generate_s: float
    run_s: float
    modelled: Dict[str, float]
    counts: Dict[str, float]
    fingerprint: str
    problems: List[str]


def modelled_metrics(res) -> Dict[str, float]:
    """The simulated end-to-end metrics of one result record."""
    return {
        "lat_us.p50": res.latency.percentile(50) / 1e3,
        "lat_us.p99": res.latency.percentile(99) / 1e3,
        "lat_us.mean": res.latency.mean() / 1e3,
        "cpu_cores": res.cpu_utilization,
        "delivered_frac": res.delivered / res.offered,
        "loss_frac": res.loss_fraction,
        "power_w": res.energy_j / (res.duration_ns / SEC),
    }


def exact_counts(res) -> Dict[str, float]:
    """Public counters of one result record; all repeat exactly."""
    m = res.machine
    reg = m.metrics
    return {
        "offered": res.offered,
        "delivered": res.delivered,
        "drops": res.drops,
        "left_in_rings": sum(q.ring.occupancy for q in m.sim.rx_queues),
        "samples": res.latency.count,
        "sim.events": m.sim.events_scheduled,
        "kernel.sleep_calls": sum(
            reg.value(n) for n in reg.names()
            if n.startswith("sleep.") and n.endswith(".calls")),
        "kernel.wakeups": sum(t.wakeups for t in m.threads),
        "kernel.cstate_exit_ns": sum(c.exit_stall_ns for c in m.cores),
        "kernel.dispatch_wait_ns": sum(
            t.dispatch_latency_ns for t in m.threads),
        "nic.irqs": getattr(res, "irqs", 0),
        "core.wake_rounds": getattr(res, "wake_rounds", 0),
        "core.busy_tries": getattr(res, "busy_tries", 0),
        "core.vacation_us": getattr(res, "mean_vacation_us", 0.0),
        "core.ts_us": getattr(res, "ts_us", 0.0),
    }


def check(counts: Dict[str, float]) -> List[str]:
    """The correctness gate: packet conservation and enough samples."""
    problems = []
    accounted = counts["delivered"] + counts["drops"] + counts["left_in_rings"]
    if counts["offered"] < 1 or counts["offered"] != accounted:
        problems.append(
            f"packet conservation: offered {counts['offered']} != delivered "
            f"{counts['delivered']} + drops {counts['drops']} + left in "
            f"rings {counts['left_in_rings']}")
    if counts["samples"] < MIN_SAMPLES:
        problems.append(f"only {counts['samples']} latency samples "
                        f"(need {MIN_SAMPLES})")
    return problems


def fingerprint(res, modelled: Dict[str, float],
                counts: Dict[str, float]) -> str:
    """sha256 over every simulated output, latency samples included."""
    blob = json.dumps([modelled, counts, res.latency.samples()],
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def measure_setup(wl: Workload, seed: int) -> float:
    """Host CPU seconds from the seed to the first simulated event."""
    d = wl.duration_ms
    gc.collect()
    with FirstEvent(abort=True) as probe:
        t0 = process_time()
        try:
            wl.run(wl.inputs(seed, d), seed, d)
        except SetupDone:
            pass
    if probe.t_first is None:
        raise RuntimeError(f"{wl.name}: the runner never started simulating")
    return probe.t_first - t0


def measure(wl: Workload, seed: int, duration_ms: Optional[int] = None) -> Rep:
    """Build and run one repetition; check its outputs."""
    duration_ms = duration_ms or wl.duration_ms
    gc.collect()
    with FirstEvent() as probe:
        t0 = process_time()
        inputs = wl.inputs(seed, duration_ms)
        t_gen = process_time()
        res = wl.run(inputs, seed, duration_ms)
        t_end = process_time()
    del inputs
    modelled = modelled_metrics(res)
    counts = exact_counts(res)
    rep = Rep(
        setup_s=probe.t_first - t0,
        generate_s=t_gen - t0,
        run_s=t_end - probe.t_first,
        modelled=modelled,
        counts=counts,
        fingerprint=fingerprint(res, modelled, counts),
        problems=check(counts),
    )
    del res
    gc.collect()
    return rep
