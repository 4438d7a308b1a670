"""Uniform runners for the three systems under study.

Every runner goes through one pipeline, :func:`_run`: it builds a fresh
:class:`~repro.kernel.machine.Machine`, arms the instruments, puts the
traffic on one :class:`~repro.nic.device.NicPort`, starts the receiver
the runner builds on that port (a Metronome group, a DPDK lcore, an XDP
driver, or several of them as one :class:`Receivers`), runs for a
simulated duration, and measures every receiver the same way.  Each
result record carries the metrics the paper reports: loss, CPU
utilization (100% = one core), latency distribution, throughput, and —
for Metronome — renewal-cycle statistics and controller state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import config
from repro.core.metronome import MetronomeGroup, WatchdogConfig
from repro.core.tuning import AdaptiveTuner, TunerBase
from repro.dpdk.app import PacketApp
from repro.dpdk.lcore import PollModeLcore
from repro.faults.plan import TRAFFIC_KINDS, FaultPlan
from repro.kernel.machine import Machine
from repro.metrics.latency import LatencyStats
from repro.nic.device import NicPort
from repro.nic.flows import FlowSet
from repro.nic.topology import rss_shard
from repro.nic.traffic import ArrivalProcess, CbrProcess, FaultableProcess
from repro.sim.snapshot import MachineState
from repro.sim.units import MS, SEC, US


def default_app() -> PacketApp:
    """The default workload: l3fwd with the standard flow population."""
    from repro.apps.l3fwd import L3FwdApp

    return L3FwdApp(flows=FlowSet())


def as_arrival_process(rate: object) -> ArrivalProcess:
    """Coerce a pps count into CBR traffic; processes pass through."""
    return rate if isinstance(rate, ArrivalProcess) else CbrProcess(int(rate))


@dataclass
class BaseRunResult:
    """Metrics common to every system."""

    duration_ns: int
    offered: int
    delivered: int
    drops: int
    cpu_utilization: float
    energy_j: float
    latency: LatencyStats
    machine: Optional[Machine] = field(default=None, repr=False)
    checkpoint: Optional[MachineState] = field(default=None, repr=False)

    @property
    def loss_fraction(self) -> float:
        return self.drops / self.offered if self.offered else 0.0

    @property
    def throughput_mpps(self) -> float:
        return self.delivered / (self.duration_ns / SEC) / 1e6

    @property
    def tracer(self):
        """The machine's event tracer (NULL_TRACER unless ``trace=True``)."""
        return self.machine.tracer if self.machine is not None else None


@dataclass
class MetronomeRunResult(BaseRunResult):
    mean_vacation_us: float = 0.0
    mean_busy_us: float = 0.0
    mean_n_vacation: float = 0.0
    cycles: int = 0
    busy_tries: int = 0
    wake_rounds: int = 0
    rho: float = 0.0
    ts_us: float = 0.0
    group: Optional[MetronomeGroup] = field(default=None, repr=False)

    @property
    def busy_try_fraction(self) -> float:
        return self.busy_tries / self.wake_rounds if self.wake_rounds else 0.0


@dataclass
class DpdkRunResult(BaseRunResult):
    lcore: Optional[PollModeLcore] = field(default=None, repr=False)


@dataclass
class XdpRunResult(BaseRunResult):
    irqs: int = 0


class Receivers:
    """Several receivers that :func:`_run` starts and measures as one
    (e.g. one Metronome group or one DPDK lcore per queue)."""

    def __init__(self, receivers: List[Any]):
        self.receivers = receivers

    def start(self) -> None:
        for receiver in self.receivers:
            receiver.start()

    @property
    def cores(self) -> List[int]:
        return [core for r in self.receivers for core in r.cores]

    @property
    def total_packets(self) -> int:
        return sum(r.total_packets for r in self.receivers)


def _run(
    build: Callable[[Machine, NicPort], Any],
    processes: List[ArrivalProcess],
    duration_ms: int,
    cfg: Optional[config.SimConfig],
    *,
    label: str,
    flows: Optional[FlowSet] = None,
    queue_nodes: Optional[List[int]] = None,
    trace: bool = False,
    checks: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    setup_hook: Optional[Callable[[Machine, Any], None]] = None,
    checkpoint_at_ns: Optional[int] = None,
    at_checkpoint: Optional[Callable[[Machine, MachineState], None]] = None,
) -> Tuple[Any, Dict[str, Any]]:
    """The one build → run → measure path every runner goes through.

    Builds the :class:`Machine`, arms the instruments (tracer, check
    monitors, fault plan) before any workload exists so construction
    hooks bind to them, puts one Rx queue per arrival process on a
    :class:`NicPort`, and starts the receiver ``build(machine, port)``
    returns — anything with ``start()``, ``cores`` and
    ``total_packets``.  ``setup_hook(machine, receiver)`` runs after the
    start (interference workloads, samplers, ...).

    The measurement window is ``[0, duration_ms)``: CPU is the
    receiver cores' executing time over the window (100% = one core),
    energy the package energy over it.  ``checkpoint_at_ns``, which must
    lie inside the window, pauses it once for a pure
    :meth:`Machine.snapshot`;
    ``at_checkpoint(machine, state)`` may then mutate the live machine
    to fork a variant future off the verified prefix (see
    :mod:`repro.sim.snapshot`).

    Returns the receiver and the :class:`BaseRunResult` fields every
    runner shares, minus ``latency`` (each receiver records its own).
    """
    until = duration_ms * MS
    if checkpoint_at_ns is not None and not 0 <= checkpoint_at_ns <= until:
        raise ValueError(
            f"checkpoint_at_ns {checkpoint_at_ns} lies outside the "
            f"measurement window [0, {until}] ns"
        )
    machine = Machine(cfg or config.SimConfig())
    if trace:
        machine.enable_tracing()
    if checks:
        machine.enable_checks()
    if fault_plan is not None:
        engine = machine.install_faults(fault_plan)
        if any(s.kind in TRAFFIC_KINDS for s in fault_plan.specs):
            processes = [FaultableProcess(p) for p in processes]
            for process in processes:
                engine.register_process(process)
    port = NicPort(
        machine.sim,
        processes,
        flows=flows,
        ring_size=machine.cfg.rx_ring_size,
        sample_every=machine.cfg.latency_sample_every,
        queue_nodes=queue_nodes,
    )
    receiver = build(machine, port)
    receiver.start()
    if setup_hook is not None:
        setup_hook(machine, receiver)

    def meter() -> Tuple[int, float]:
        # exactly once on each side of the window: an energy read closes
        # the open power intervals, so an extra one can move the float
        # sum by an ulp
        return machine.executing_ns(receiver.cores), machine.energy_joules()

    busy0, e0 = meter()
    checkpoint = None
    if checkpoint_at_ns is not None:
        machine.run(until=checkpoint_at_ns)
        checkpoint = machine.snapshot(label=label)
        if at_checkpoint is not None:
            at_checkpoint(machine, checkpoint)
    machine.run(until=until)
    busy1, e1 = meter()

    offered = port.total_arrived()  # syncs every queue
    delivered = receiver.total_packets
    if machine.checks is not None:
        machine.checks.quiesce(consumed=delivered)
    return receiver, dict(
        duration_ns=until,
        offered=offered,
        delivered=delivered,
        drops=port.total_drops(),
        cpu_utilization=(busy1 - busy0) / until,
        energy_j=e1 - e0,
        machine=machine,
        checkpoint=checkpoint,
    )


def _metronome_builder(
    app: Optional[PacketApp],
    tuner: Optional[TunerBase],
    num_threads: Optional[int],
    cores: Optional[List[int]],
    **group_kwargs,
) -> Callable[[Machine, NicPort], MetronomeGroup]:
    """A ``build`` for :func:`_run`: one group over every port queue."""

    def build(machine: Machine, port: NicPort) -> MetronomeGroup:
        cfg = machine.cfg
        m = num_threads if num_threads is not None else cfg.num_threads
        return MetronomeGroup(
            machine,
            port.queues,
            app or default_app(),
            # seed the adaptive controller mid-range so early cycles
            # are sane
            tuner=tuner or AdaptiveTuner(
                vbar_ns=cfg.vbar_ns, tl_ns=cfg.tl_ns, m=m, alpha=cfg.alpha,
                initial_rho=0.5,
            ),
            num_threads=m,
            cores=cores,
            **group_kwargs,
        )

    return build


def _metronome_result(
    group: MetronomeGroup, fields: Dict[str, Any]
) -> MetronomeRunResult:
    """The Metronome record: common fields plus cycle/controller state."""
    cs = group.cycle_stats()
    return MetronomeRunResult(
        **fields,
        latency=group.latency,
        mean_vacation_us=cs.mean_vacation_ns() / US if cs.count else 0.0,
        mean_busy_us=cs.mean_busy_ns() / US if cs.count else 0.0,
        mean_n_vacation=cs.mean_n_vacation() if cs.count else 0.0,
        cycles=cs.count,
        busy_tries=group.busy_tries,
        wake_rounds=group.total_iterations,
        rho=group.tuner.rho,
        ts_us=group.tuner.ts_ns() / US,
        group=group,
    )


def run_metronome(
    rate: object,
    duration_ms: int = 100,
    app: Optional[PacketApp] = None,
    cfg: Optional[config.SimConfig] = None,
    tuner: Optional[TunerBase] = None,
    sleep_service: str = "hr_sleep",
    num_threads: Optional[int] = None,
    cores: Optional[List[int]] = None,
    nice: int = 0,
    setup_hook: Optional[Callable[[Machine, MetronomeGroup], None]] = None,
    trace: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    watchdog: Optional[WatchdogConfig] = None,
    checks: bool = False,
    checkpoint_at_ns: Optional[int] = None,
    at_checkpoint: Optional[Callable[[Machine, MachineState], None]] = None,
) -> MetronomeRunResult:
    """Run Metronome over one shared Rx queue.

    ``rate`` is either a pps int (CBR traffic) or a ready
    :class:`ArrivalProcess`.  ``trace=True`` enables nanosecond event
    tracing (see :mod:`repro.trace`) without perturbing the run; read
    it back via ``result.tracer``.  ``checks=True`` enables the
    :mod:`repro.check` invariant monitors (zero-perturbation, like
    tracing); read violations back via ``result.machine.checks``.

    ``fault_plan`` installs a :class:`~repro.faults.FaultEngine` before
    the workload is built (traffic-side faults wrap the arrival process
    in a :class:`~repro.nic.traffic.FaultableProcess`); ``watchdog``
    enables the group's starvation watchdog — together they form the
    chaos harness's adversarial setup (see :mod:`repro.faults.chaos`).
    ``setup_hook(machine, group)`` runs after the group starts;
    ``checkpoint_at_ns``/``at_checkpoint`` pause the run once for a pure
    snapshot, returned as ``result.checkpoint`` (see :func:`_run`).
    """
    group, fields = _run(
        _metronome_builder(
            app, tuner, num_threads, cores,
            sleep_service=sleep_service, nice=nice, watchdog=watchdog,
        ),
        [as_arrival_process(rate)], duration_ms, cfg,
        label="metronome", trace=trace, checks=checks,
        fault_plan=fault_plan, setup_hook=setup_hook,
        checkpoint_at_ns=checkpoint_at_ns, at_checkpoint=at_checkpoint,
    )
    return _metronome_result(group, fields)


def run_dpdk(
    rate: object,
    duration_ms: int = 100,
    app: Optional[PacketApp] = None,
    cfg: Optional[config.SimConfig] = None,
    core: int = 0,
    nice: int = 0,
    setup_hook: Optional[Callable[[Machine, PollModeLcore], None]] = None,
    trace: bool = False,
    checks: bool = False,
    checkpoint_at_ns: Optional[int] = None,
    at_checkpoint: Optional[Callable[[Machine, MachineState], None]] = None,
) -> DpdkRunResult:
    """Run the static continuous-polling DPDK baseline (one lcore)."""
    lcore, fields = _run(
        lambda machine, port: PollModeLcore(
            machine, port.queues, app or default_app(), core=core, nice=nice
        ),
        [as_arrival_process(rate)], duration_ms, cfg,
        label="dpdk", trace=trace, checks=checks, setup_hook=setup_hook,
        checkpoint_at_ns=checkpoint_at_ns, at_checkpoint=at_checkpoint,
    )
    return DpdkRunResult(**fields, latency=lcore.latency, lcore=lcore)


def run_xdp(
    rate_pps: int,
    duration_ms: int = 100,
    app: Optional[PacketApp] = None,
    cfg: Optional[config.SimConfig] = None,
    num_queues: int = 1,
    cores: Optional[List[int]] = None,
    prewarmed: bool = True,
    setup_hook: Optional[Callable[[Machine, "XdpDriver"], None]] = None,
    trace: bool = False,
    checks: bool = False,
    checkpoint_at_ns: Optional[int] = None,
    at_checkpoint: Optional[Callable[[Machine, MachineState], None]] = None,
) -> XdpRunResult:
    """Run the XDP baseline: ``num_queues`` queues, 1:1 queue-to-core.

    Traffic is split evenly across the queues (the paper's ethtool flow
    steering).  ``rate_pps`` may also be a ready
    :class:`ArrivalProcess` (e.g. trace replay): a schedule-backed
    process (trace replay) is RSS flow-sharded across the queues via
    the Toeplitz redirection table
    (:func:`repro.nic.topology.rss_shard`), conserving the master
    schedule exactly; a synthetic stateful process without a fixed
    schedule still requires ``num_queues=1``.  ``prewarmed=False``
    starts with a cold page pool, for the burst-reactivity experiment.
    """
    from repro.xdp.driver import XdpDriver

    flows = None
    if isinstance(rate_pps, ArrivalProcess):
        if num_queues == 1:
            processes = [rate_pps]
        else:
            # the shard mapping and the Rx tagger must resolve flow ids
            # through the same population, so share one FlowSet
            flows = FlowSet()
            processes = rss_shard(rate_pps, num_queues, flows=flows)
    else:
        per_queue = int(rate_pps) // num_queues
        processes = [CbrProcess(per_queue) for _ in range(num_queues)]

    def build(machine: Machine, port: NicPort) -> XdpDriver:
        xdp_app = app
        if xdp_app is None:
            # same functional workload, XDP-calibrated per-packet cost
            # (page handling + eBPF program + DMA sync; see config)
            xdp_app = default_app()
            xdp_app.per_packet_ns = config.XDP_PKT_NS
        driver = XdpDriver(machine, port, xdp_app, cores=cores)
        if prewarmed:
            for q in driver.queues:
                q._warm_remaining = 0
                q._last_active_ns = 0
        return driver

    driver, fields = _run(
        build, processes, duration_ms, cfg,
        label="xdp", flows=flows, trace=trace, checks=checks,
        setup_hook=setup_hook,
        checkpoint_at_ns=checkpoint_at_ns, at_checkpoint=at_checkpoint,
    )
    return XdpRunResult(**fields, latency=driver.latency,
                        irqs=driver.total_irqs)
