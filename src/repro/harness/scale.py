"""100G many-queue scale-out runner and figures (ROADMAP item 2).

The paper validates Metronome at 10 GbE with 2 queues and a handful of
threads; production NICs are 100G with 16–64 RSS queues spread across
NUMA sockets.  :func:`run_metronome_scaled` builds that machine through
the shared runner pipeline: one many-queue
:class:`~repro.nic.device.NicPort` with per-queue NUMA placement,
dozens of Metronome threads over its queues, and the cross-socket
wake/memory penalties of
:mod:`repro.kernel.machine` / :mod:`repro.core.metronome` active
whenever ``numa_nodes > 1``.

Two scenario functions feed the campaign registry:

* :func:`scale_queue_count` — loss/latency/CPU as the queue count grows
  2→64 at fixed 100G offered load and a fixed thread:queue ratio;
* :func:`scale_thread_ratio` — the same machine at 16 queues while the
  thread:queue ratio sweeps 0.5→3, probing whether the adaptive T_S
  rule still converges at 8× the paper's core count and whether
  cross-socket wake latency breaks the ε-bound of eq. 7 (the ``V̄
  err %`` column).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro import config
from repro.core.tuning import TunerBase
from repro.dpdk.app import PacketApp
from repro.harness.experiment import (
    MetronomeRunResult,
    _metronome_builder,
    _metronome_result,
    _run,
)
from repro.nic.traffic import CbrProcess, gbps_to_pps
from repro.sim.units import US


def queue_node_map(num_queues: int, numa_nodes: int) -> List[int]:
    """Contiguous-block queue→node placement, mirroring
    :class:`~repro.kernel.cpu.Core`'s core→node formula so queue ``i``
    and core ``i`` land on the same socket at a 1:1 thread ratio."""
    nn = max(1, numa_nodes)
    return [i * nn // max(1, num_queues) for i in range(num_queues)]


def run_metronome_scaled(
    num_queues: int,
    num_threads: int,
    gbps: float = 100.0,
    frame_len: int = 64,
    duration_ms: int = 24,
    numa_nodes: int = 2,
    cfg: Optional[config.SimConfig] = None,
    tuner: Optional[TunerBase] = None,
    app: Optional[PacketApp] = None,
    checks: bool = False,
    seed: int = config.DEFAULT_SEED,
) -> MetronomeRunResult:
    """Run Metronome over a many-queue, multi-socket 100G port.

    The offered ``gbps`` (at ``frame_len`` serialization timing) is
    split evenly across ``num_queues`` CBR processes — the aggregate is
    exact: the integer remainder is spread one pps over the first
    queues.  Queues and cores are both placed on ``numa_nodes`` sockets
    in contiguous blocks, so remote-socket penalties engage exactly for
    the cross-block (thread, queue) pairs.  ``cfg`` overrides the
    machine config wholesale (its ``num_cores``/``numa_nodes`` must
    accommodate the requested scale).
    """
    if num_queues < 1 or num_threads < 1:
        raise ValueError("need at least one queue and one thread")
    if cfg is None:
        nn = max(1, min(numa_nodes, num_threads))
        cfg = config.SimConfig(
            seed=seed, num_cores=num_threads, numa_nodes=nn,
        )
    base, rem = divmod(gbps_to_pps(gbps, frame_len), num_queues)
    processes = [
        CbrProcess(base + (1 if i < rem else 0)) for i in range(num_queues)
    ]
    group, fields = _run(
        _metronome_builder(app, tuner, num_threads, list(range(num_threads))),
        processes, duration_ms, cfg,
        label="metronome",
        queue_nodes=queue_node_map(num_queues, cfg.numa_nodes),
        checks=checks,
    )
    return _metronome_result(group, fields)


def _vbar_err_pct(res: MetronomeRunResult, vbar_ns: int) -> float:
    """Relative error of the measured V̄ against the eq.-7 target, in
    percent; -1.0 when the run produced no renewal cycles to measure."""
    if res.cycles == 0:
        return -1.0
    return round((res.mean_vacation_us - vbar_ns / US) / (vbar_ns / US) * 100,
                 4)


def scale_queue_count(
    num_queues_values: Sequence[int] = (2, 4, 8, 16, 32, 64),
    duration_ms: int = 24,
    gbps: float = 100.0,
    threads_per_queue: float = 0.5,
    numa_nodes: int = 2,
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple]:
    """Rows: (queues, threads, loss %, mean us, p99 us, cpu, ts us,
    V̄ err %).

    Fixed aggregate 100G/64B offered load, thread count scaling with
    the queue count (floor 3 — the paper's minimum M — cap 48).  Loss
    falls as queues and threads grow because the fixed aggregate splits
    into ever-lighter per-queue streams; the last two columns are the
    headline: does adaptive T_S still land near the V̄ target at 8× the
    paper's core count.
    """
    rows: List[Tuple] = []
    for nq in num_queues_values:
        threads = max(3, min(48, round(nq * threads_per_queue)))
        res = run_metronome_scaled(
            nq, threads, gbps=gbps, duration_ms=duration_ms,
            numa_nodes=numa_nodes, seed=seed,
        )
        rows.append((
            nq,
            threads,
            round(res.loss_fraction * 100, 4),
            round(res.latency.mean() / 1e3, 3),
            round(res.latency.percentile(99) / 1e3, 3),
            round(res.cpu_utilization, 4),
            round(res.ts_us, 3),
            _vbar_err_pct(res, res.machine.cfg.vbar_ns),
        ))
    return rows


def scale_thread_ratio(
    ratios: Sequence[float] = (0.5, 1.0, 2.0, 3.0),
    num_queues: int = 16,
    duration_ms: int = 24,
    gbps: float = 100.0,
    numa_nodes: int = 2,
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple]:
    """Rows: (ratio, threads, loss %, mean us, p99 us, cpu,
    busy-try frac, V̄ err %).

    16 queues at 100G while the thread:queue ratio sweeps — under-
    provisioned (0.5) through heavily over-provisioned (3.0).  The
    busy-try fraction is the §3.2 trylock-diversity metric: it should
    rise with the ratio as more threads race for the same queues.
    """
    rows: List[Tuple] = []
    for ratio in ratios:
        threads = max(1, min(48, int(num_queues * ratio)))
        res = run_metronome_scaled(
            num_queues, threads, gbps=gbps, duration_ms=duration_ms,
            numa_nodes=numa_nodes, seed=seed,
        )
        rows.append((
            ratio,
            threads,
            round(res.loss_fraction * 100, 4),
            round(res.latency.mean() / 1e3, 3),
            round(res.latency.percentile(99) / 1e3, 3),
            round(res.cpu_utilization, 4),
            round(res.busy_try_fraction, 4),
            _vbar_err_pct(res, res.machine.cfg.vbar_ns),
        ))
    return rows
