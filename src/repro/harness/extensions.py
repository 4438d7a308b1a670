"""Extension and ablation scenarios beyond the paper's core figures.

These cover: the §5.1 bidirectional test, the §3.2 multi-queue (40GbE+)
motivation, the Figure-4 primary-role rotation, design-choice ablations
(timeout diversity, adaptivity, EWMA gain), the Appendix-B renewal-model
validation, and the §2 traffic-shaping extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro import config
from repro.core.metronome import MetronomeGroup
from repro.core.tuning import AdaptiveTuner, FixedTuner
from repro.dpdk.lcore import PollModeLcore
from repro.harness.experiment import (
    Receivers,
    _run,
    default_app,
    run_dpdk,
    run_metronome,
)
from repro.kernel.machine import Machine
from repro.nic.device import NicPort
from repro.nic.traffic import CbrProcess, gbps_to_pps, triangle_ramp
from repro.sim.units import MS, SEC, US

LINE = config.LINE_RATE_PPS


# ---------------------------------------------------------------------- #
# Figure 4 — primary-role rotation timeline
# ---------------------------------------------------------------------- #

@dataclass
class RotationResult:
    serving_spells: List[Tuple[str, int]]   # (thread, consecutive cycles)
    share_by_thread: Dict[str, float]
    switches: int
    cycles: int


def role_rotation(
    duration_ms: int = 80,
    m: int = 3,
    rate_pps: int = LINE,
    seed: int = config.DEFAULT_SEED,
) -> RotationResult:
    """§4.1/Figure 4: at high load one thread at a time serves the
    queue, 'randomly changing in the long term'."""
    cfg = config.SimConfig(seed=seed, num_cores=max(6, m))
    res = run_metronome(rate_pps, duration_ms=duration_ms, cfg=cfg,
                        num_threads=m, cores=list(range(m)))
    records = res.group.cycle_stats().records
    spells: List[Tuple[str, int]] = []
    counts: Dict[str, int] = {}
    switches = 0
    for rec in records:
        counts[rec.thread_name] = counts.get(rec.thread_name, 0) + 1
        if spells and spells[-1][0] == rec.thread_name:
            spells[-1] = (rec.thread_name, spells[-1][1] + 1)
        else:
            if spells:
                switches += 1
            spells.append((rec.thread_name, 1))
    total = sum(counts.values())
    return RotationResult(
        serving_spells=spells,
        share_by_thread={k: v / total for k, v in counts.items()},
        switches=switches,
        cycles=total,
    )


# ---------------------------------------------------------------------- #
# §5.1 — bidirectional throughput
# ---------------------------------------------------------------------- #

@dataclass
class BidirResult:
    metronome_mpps_per_port: float
    metronome_loss_pct: float
    metronome_cpu: float
    dpdk_mpps_per_port: float
    dpdk_loss_pct: float
    dpdk_cpu: float


def _group_per_queue(threads: int, name: str):
    """A ``build`` for :func:`_run`: one Metronome group of ``threads``
    threads per port queue, on its own block of cores."""

    def build(machine: Machine, port: NicPort) -> Receivers:
        cfg = machine.cfg
        return Receivers([
            MetronomeGroup(
                machine, [queue], default_app(),
                tuner=AdaptiveTuner(vbar_ns=cfg.vbar_ns, tl_ns=cfg.tl_ns,
                                    m=threads, initial_rho=0.5),
                num_threads=threads,
                cores=list(range(i * threads, (i + 1) * threads)),
                name=f"{name}{i}",
            )
            for i, queue in enumerate(port.queues)
        ])

    return build


def bidirectional_throughput(
    rate_pps: int = config.BIDIR_RATE_PPS,
    duration_ms: int = 60,
    seed: int = config.DEFAULT_SEED,
) -> BidirResult:
    """Two ports at the paper's bidirectional ceiling (11.61 Mpps each):
    Metronome with 3 threads per Rx queue matches the two dedicated
    polling lcores."""

    def arm(build, num_cores: int):
        _receivers, fields = _run(
            build, [CbrProcess(rate_pps) for _ in range(2)], duration_ms,
            config.SimConfig(seed=seed, num_cores=num_cores),
            label="bidir",
        )
        return (
            fields["delivered"] / 2 / (duration_ms * MS / SEC) / 1e6,
            100 * fields["drops"] / max(1, fields["offered"]),
            fields["cpu_utilization"],
        )

    # Metronome: 3 threads per queue, 6 cores
    met = arm(_group_per_queue(3, "met-p"), 8)
    # DPDK: one dedicated polling lcore per queue
    dpdk = arm(lambda machine, port: Receivers([
        PollModeLcore(machine, [queue], default_app(), core=i,
                      name=f"dpdk-p{i}")
        for i, queue in enumerate(port.queues)
    ]), 4)
    return BidirResult(*met, *dpdk)


# ---------------------------------------------------------------------- #
# §3.2 — multi-queue (40 GbE-class) scaling
# ---------------------------------------------------------------------- #

def multiqueue_scaling(
    num_queues: int = 4,
    per_queue_pps: int = LINE,
    threads_per_queue: int = 3,
    duration_ms: int = 40,
    seed: int = config.DEFAULT_SEED,
) -> dict:
    """The §3.2 motivation scaled up: N line-rate queues (a 40GbE-class
    port with RSS), each shared by its own Metronome thread trio."""
    _groups, fields = _run(
        _group_per_queue(threads_per_queue, "met-q"),
        [CbrProcess(per_queue_pps) for _ in range(num_queues)],
        duration_ms,
        config.SimConfig(seed=seed, num_cores=num_queues * threads_per_queue,
                         latency_sample_every=512),
        label="multiqueue",
    )
    offered = fields["offered"]
    cpu = fields["cpu_utilization"]
    return {
        "num_queues": num_queues,
        "offered_mpps": offered / (duration_ms * MS / SEC) / 1e6,
        "delivered_mpps": fields["delivered"] / (duration_ms * MS / SEC) / 1e6,
        "loss_pct": 100 * fields["drops"] / max(1, offered),
        "cpu_total": cpu,
        "cpu_per_queue": cpu / num_queues,
    }


# ---------------------------------------------------------------------- #
# Ablation: timeout diversity (primary/backup vs equal timeouts)
# ---------------------------------------------------------------------- #

def ablation_diversity(
    rate_pps: int = LINE,
    duration_ms: int = 50,
    seed: int = config.DEFAULT_SEED,
) -> Dict[str, dict]:
    """§4.1's motivating claim: equal timeouts degrade CPU at load."""
    out: Dict[str, dict] = {}
    for label, ts, tl in (
        ("equal", 10 * US, 10 * US),
        ("diverse", 10 * US, 500 * US),
    ):
        cfg = config.SimConfig(seed=seed)
        res = run_metronome(rate_pps, duration_ms=duration_ms, cfg=cfg,
                            tuner=FixedTuner(ts_ns=ts, tl_ns=tl))
        out[label] = {
            "cpu": res.cpu_utilization,
            "busy_tries": res.busy_tries,
            "busy_try_fraction": res.busy_try_fraction,
            "loss_pct": res.loss_fraction * 100,
            "mean_latency_us": res.latency.mean() / 1e3,
        }
    return out


# ---------------------------------------------------------------------- #
# Ablation: adaptive vs fixed T_S under a load ramp
# ---------------------------------------------------------------------- #

def ablation_adaptivity(
    duration_s: float = 1.0,
    seed: int = config.DEFAULT_SEED,
) -> Dict[str, dict]:
    """What the eq.-12 controller buys over any single fixed T_S when
    the load swings 0 → 14 Mpps → 0."""
    duration_ns = int(duration_s * SEC)
    out: Dict[str, dict] = {}
    configs = {
        "adaptive": None,
        "fixed_ts=10us": FixedTuner(ts_ns=10 * US, tl_ns=500 * US),
        "fixed_ts=30us": FixedTuner(ts_ns=30 * US, tl_ns=500 * US),
    }
    for label, tuner in configs.items():
        profile = triangle_ramp(duration_ns, int(14e6), steps=10)
        cfg = config.SimConfig(seed=seed)
        res = run_metronome(profile, duration_ms=int(duration_s * 1000),
                            cfg=cfg, tuner=tuner)
        out[label] = {
            "cpu": res.cpu_utilization,
            "loss_pct": res.loss_fraction * 100,
            "p99_latency_us": res.latency.percentile(99) / 1e3,
            "mean_latency_us": res.latency.mean() / 1e3,
        }
    return out


# ---------------------------------------------------------------------- #
# Ablation: EWMA gain α (eq. 10)
# ---------------------------------------------------------------------- #

def ablation_alpha(
    alphas: Sequence[float] = (0.03, 0.125, 0.5, 1.0),
    duration_ms: int = 300,
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple[float, float, float]]:
    """Rows: (alpha, settling ms after a 1→13 Mpps step, steady-state
    rho ripple under Poisson traffic).

    The two halves of the classic gain trade-off are measured in the
    regimes where each is visible: settling on a deterministic load
    step; ripple under stochastic (Poisson) arrivals, since with CBR
    the per-cycle ρ samples are essentially noise-free and the residual
    variation is closed-loop drift rather than filter noise.
    """
    from repro.nic.traffic import PoissonProcess, RampProfile
    from repro.sim.rng import RandomStreams

    rows = []
    for alpha in alphas:
        # -- settling: deterministic step ------------------------------- #
        step_at = duration_ms // 2 * MS
        profile = RampProfile([(0, int(1e6)), (step_at, int(13e6))])
        cfg = config.SimConfig(seed=seed, alpha=alpha)
        tuner = AdaptiveTuner(vbar_ns=cfg.vbar_ns, tl_ns=cfg.tl_ns,
                              m=cfg.num_threads, alpha=alpha,
                              record_history=True)
        run_metronome(profile, duration_ms=duration_ms, cfg=cfg, tuner=tuner)
        history = tuner.history
        final = sum(r for _t, r, _ts in history[-50:]) / 50
        settle_ns = None
        for t, rho, _ts in history:
            if t > step_at and abs(rho - final) < 0.1 * max(final, 0.05):
                settle_ns = t - step_at
                break

        # -- ripple: steady Poisson load -------------------------------- #
        cfg = config.SimConfig(seed=seed, alpha=alpha)
        process = PoissonProcess(
            int(10e6), RandomStreams(seed).numpy_stream(f"alpha{alpha}")
        )
        tuner2 = AdaptiveTuner(vbar_ns=cfg.vbar_ns, tl_ns=cfg.tl_ns,
                               m=cfg.num_threads, alpha=alpha,
                               initial_rho=0.4, record_history=True)
        run_metronome(process, duration_ms=duration_ms // 2, cfg=cfg,
                      tuner=tuner2)
        tail = [r for _t, r, _ts in tuner2.history[-400:]]
        mean_tail = sum(tail) / len(tail)
        ripple = (sum((r - mean_tail) ** 2 for r in tail) / len(tail)) ** 0.5
        rows.append((alpha,
                     (settle_ns or duration_ms * MS) / MS,
                     ripple))
    return rows


# ---------------------------------------------------------------------- #
# Appendix B — renewal-model validation across loads
# ---------------------------------------------------------------------- #

def appendix_b_validation(
    rates_mpps: Sequence[float] = (2.0, 5.0, 8.0, 11.0, 14.0),
    duration_ms: int = 50,
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple[float, float, float, float]]:
    """Rows: (rate Mpps, measured B us, eq.-3 predicted B us, N_V/λV).

    Validates E[B|V] = V·ρ/(1−ρ) and Little's N_V = λ·E[V] across the
    load range, per the Appendix-B constant-μ argument.
    """
    rows = []
    for mpps_rate in rates_mpps:
        cfg = config.SimConfig(seed=seed)
        res = run_metronome(int(mpps_rate * 1e6), duration_ms=duration_ms,
                            cfg=cfg)
        rho = res.rho
        predicted_b = res.mean_vacation_us * rho / (1 - rho) if rho < 1 else 0
        littles_ratio = (
            res.mean_n_vacation
            / (mpps_rate * res.mean_vacation_us)
        )
        rows.append((mpps_rate, res.mean_busy_us, predicted_b, littles_ratio))
    return rows


# ---------------------------------------------------------------------- #
# §1 extension — hyper-threading interference
# ---------------------------------------------------------------------- #

def smt_interference(
    job_work_ms: int = 60,
    rate_pps: int = None,
    seed: int = config.DEFAULT_SEED,
) -> Dict[str, float]:
    """The paper's §1 claim, quantified: "100% usage of computing units
    is not favorable to performance in scenarios where threads run on
    hyper-threaded machines".

    A fixed-work compute job runs on hardware thread 1; its SMT sibling
    (hardware thread 0) hosts either nothing, a polling DPDK lcore, or
    one of three Metronome threads.  Returns completion times (ms).
    """
    from repro.apps.ferret import FerretWorkload

    rate = rate_pps if rate_pps is not None else gbps_to_pps(1.0)
    bound_ms = job_work_ms * 20
    jobs: List[FerretWorkload] = []

    def smt_cfg() -> config.SimConfig:
        return config.SimConfig(seed=seed, num_cores=6, smt_pairs=[(0, 1)])

    def start_job(machine: Machine, _receiver=None) -> None:
        job = FerretWorkload(machine, total_work_ms=job_work_ms,
                             num_workers=1, cores=[1], nice=0, name="job")
        job.start()
        jobs.append(job)

    # -- alone ----------------------------------------------------------- #
    machine = Machine(smt_cfg())
    start_job(machine)
    machine.run(until=bound_ms * MS)

    # -- polling DPDK on the sibling -------------------------------------- #
    run_dpdk(rate, duration_ms=bound_ms, cfg=smt_cfg(), core=0,
             setup_hook=start_job)

    # -- Metronome thread on the sibling ---------------------------------- #
    cfg = smt_cfg()
    run_metronome(rate, duration_ms=bound_ms, cfg=cfg,
                  tuner=AdaptiveTuner(vbar_ns=cfg.vbar_ns, tl_ns=cfg.tl_ns,
                                      m=3, initial_rho=0.3),
                  num_threads=3, cores=[0, 2, 3], setup_hook=start_job)

    alone, dpdk, met = (job.elapsed_ms() for job in jobs)
    return {"alone": alone, "dpdk_sibling": dpdk, "metronome_sibling": met}


# ---------------------------------------------------------------------- #
# §2 extension — sleep-based traffic shaping
# ---------------------------------------------------------------------- #

def pacing_comparison(
    rates_kpps: Sequence[int] = (1, 10, 50, 100),
    count: int = 400,
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple[str, int, float, float, float]]:
    """Rows: (service, kpps, rate error, jitter us, gap compliance).

    Compliance is the honest shaping metric: absolute deadlines let an
    imprecise sleep hit the *mean* rate by bursting after oversleeps,
    but its inter-departure gaps stop resembling the target interval.
    """
    from repro.apps.pacer import SleepPacer

    rows = []
    for service in ("hr_sleep", "nanosleep"):
        for kpps in rates_kpps:
            cfg = config.SimConfig(seed=seed, num_cores=2, os_noise=False)
            machine = Machine(cfg)
            pacer = SleepPacer(machine, rate_pps=kpps * 1000, count=count,
                               sleep_service=service)
            pacer.start()
            machine.run(until=5 * SEC)
            rows.append((service, kpps, pacer.rate_error(),
                         pacer.jitter_ns() / 1e3, pacer.compliance()))
    return rows
