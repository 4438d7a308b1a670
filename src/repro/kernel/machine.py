"""The assembled testbed node: cores + scheduler + timers + power + noise.

A :class:`Machine` corresponds to the paper's isolated NUMA node (§3.3):
a handful of Xeon Silver cores running Linux 5.4 with either the
``performance`` or ``ondemand`` governor.  It owns the simulator, the
random streams, and every kernel subsystem, and offers the high-level
operations experiments need: spawn threads, create sleep services, read
CPU/energy accounting.
"""

from __future__ import annotations

from typing import List, Optional

from repro import config
from repro.kernel.cpu import Core
from repro.kernel.cpuidle import CpuIdle
from repro.kernel.hrtimer import HrTimerQueue
from repro.kernel.noise import OsNoise
from repro.kernel.power import PowerMeter, make_governor
from repro.kernel.scheduler import CfsScheduler
from repro.kernel.sleep import HrSleep, Nanosleep, SleepService
from repro.kernel.thread import KThread
from repro.metrics.registry import MetricsRegistry
from repro.sim.core import Simulator
from repro.sim.rng import RandomStreams
from repro.trace.tracer import NULL_TRACER, Tracer


class Machine:
    """One simulated server node."""

    def __init__(self, cfg: Optional[config.SimConfig] = None):
        self.cfg = cfg or config.SimConfig()
        self.sim = Simulator()
        self.streams = RandomStreams(self.cfg.seed)
        #: unified counters/gauges/histograms for every subsystem
        self.metrics = MetricsRegistry()
        #: event tracer; the no-op singleton unless enable_tracing() ran
        self.tracer = NULL_TRACER
        #: NUMA socket count; cores split into contiguous blocks, the
        #: timer/IRQ fabric and NIC home on node 0 (docs/SCALE.md)
        self.numa_nodes = max(1, int(self.cfg.numa_nodes))
        if self.numa_nodes > self.cfg.num_cores:
            raise ValueError(
                f"numa_nodes={self.numa_nodes} exceeds "
                f"num_cores={self.cfg.num_cores}"
            )
        self.cores: List[Core] = [Core(self, i) for i in range(self.cfg.num_cores)]
        if self.cfg.smt_pairs:
            for a, b in self.cfg.smt_pairs:
                if a == b:
                    raise ValueError(f"core {a} cannot be its own sibling")
                if self.cores[a].smt_sibling or self.cores[b].smt_sibling:
                    raise ValueError("a core can appear in one SMT pair only")
                self.cores[a].smt_sibling = self.cores[b]
                self.cores[b].smt_sibling = self.cores[a]
        self.power = PowerMeter(self)
        self.cpuidle = CpuIdle(self.streams)
        self.scheduler = CfsScheduler(self)
        self.hrtimers: List[HrTimerQueue] = [
            HrTimerQueue(self, core) for core in self.cores
        ]
        self.governor = make_governor(self, self.cfg.governor)
        self.governor.start()
        self.noise: Optional[OsNoise] = None
        if self.cfg.os_noise:
            self.noise = OsNoise(self)
            self.noise.start()
        #: fault-injection engine (``repro.faults``); None means every
        #: fault hook in the kernel model is dormant — no RNG stream is
        #: touched and no simulator event is added, so runs without an
        #: engine are byte-identical to pre-faults builds
        self.faults = None
        #: invariant-monitor registry (``repro.check``); None means
        #: every check hook is dormant, same zero-perturbation contract
        #: as ``faults``/``tracer``
        self.checks = None
        self.threads: List[KThread] = []

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def spawn(
        self,
        body,
        name: str,
        nice: int = 0,
        core: int = 0,
    ) -> KThread:
        """Create and start a thread pinned to ``core``.

        ``body`` is either a ready generator, or a callable taking the new
        :class:`KThread` and returning the generator (handy when the body
        needs its own thread handle, e.g. to arm timers for itself).
        """
        thread = KThread(self, None, name=name, nice=nice, core_index=core)
        thread.body = body(thread) if callable(body) else body
        self.threads.append(thread)
        self.scheduler.start_thread(thread)
        return thread

    def node_of(self, core_index: int) -> int:
        """NUMA node of a core (0 on the paper's single-node testbed)."""
        return self.cores[core_index].node

    def cores_on_node(self, node: int) -> List[int]:
        """Core indexes belonging to ``node``."""
        return [c.index for c in self.cores if c.node == node]

    def wake_penalty_ns(self, core: Core) -> int:
        """Cross-socket timer-IRQ delivery penalty for ``core``.

        The timer fabric (HPET / the I/O hub forwarding the LAPIC IPI)
        homes on node 0; a sleeper on a remote socket sees its expiry
        that much later.  Exactly 0 on node-0 cores and on single-node
        machines, so default configurations are byte-identical to the
        pre-NUMA model.
        """
        if core.node == 0:
            return 0
        return config.CROSS_SOCKET_WAKE_NS

    def sleep_service(self, name: str) -> SleepService:
        """Instantiate a sleep service (``"hr_sleep"``/``"nanosleep"``)."""
        if name == "hr_sleep":
            return HrSleep(self)
        if name == "nanosleep":
            return Nanosleep(self)
        raise ValueError(f"unknown sleep service {name!r}")

    def enable_tracing(self) -> Tracer:
        """Install a live event tracer (idempotent; returns it).

        Call before building workloads so construction-time hooks (e.g.
        the Metronome trylocks) bind to the live tracer.  Tracing adds
        no simulator events and draws no randomness, so enabling it
        never changes a run's results.
        """
        if not isinstance(self.tracer, Tracer):
            self.tracer = Tracer(self.sim)
        return self.tracer

    def enable_checks(self, monitors=None):
        """Install a :class:`repro.check.CheckRegistry` (idempotent).

        Call before building workloads so construction-time hooks (the
        Metronome trylocks, Rx queues) bind to the live registry.  Like
        tracing, the monitors add no simulator events and draw no
        randomness, so enabling them never changes a run's results.
        ``monitors`` selects a subset of :data:`repro.check.MONITORS`
        (default: all); a second call returns the existing registry
        unchanged.
        """
        from repro.check.registry import CheckRegistry

        if self.checks is None:
            self.checks = CheckRegistry(self, monitors=monitors)
            self.sim.monitor = self.checks
        return self.checks

    def install_faults(self, plan):
        """Install a :class:`repro.faults.FaultEngine` for ``plan``.

        Call before building workloads and before :meth:`run` so every
        episode in the plan can be armed.  Returns the engine (also
        available as :attr:`faults`).  Injector randomness comes from
        dedicated ``faults.*`` streams, so installing a plan never
        perturbs the draws of any other subsystem.
        """
        from repro.faults.engine import FaultEngine

        if self.faults is not None:
            raise RuntimeError("a fault plan is already installed")
        self.faults = FaultEngine(self, plan)
        self.faults.start()
        return self.faults

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #

    def snapshot(self, label: str = ""):
        """Checkpoint this machine's state right now.

        Returns a JSON-serializable
        :class:`~repro.sim.snapshot.MachineState`: exact RNG stream
        states plus structural fingerprints of every subsystem.  Pure
        observation — taking a snapshot never changes a run's results.
        """
        from repro.sim.snapshot import capture

        return capture(self, label=label)

    def restore(self, state, strict: bool = True):
        """Replay this (freshly built) machine to ``state`` and verify.

        The machine must be wired with the same config, seed, and
        workload recipe that produced the snapshot.  See
        :func:`repro.sim.snapshot.restore` for the contract; raises
        :class:`~repro.sim.snapshot.SnapshotMismatch` on divergence.
        """
        from repro.sim.snapshot import restore

        return restore(self, state, strict=strict)

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> int:
        return self.sim.now

    def run(self, until: Optional[int] = None) -> None:
        """Run the simulation (absolute-time bound)."""
        self.sim.run(until=until)

    def run_for(self, duration: int) -> None:
        """Run the simulation for ``duration`` more nanoseconds."""
        self.sim.run(until=self.sim.now + duration)

    def run_until_event(self, event, hard_limit: int) -> None:
        """Run until ``event`` triggers, bounded by ``hard_limit`` ns."""
        event.add_callback(lambda _ev: self.sim.stop())
        self.sim.run(until=hard_limit)

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #

    def total_cpu_busy_ns(self) -> int:
        """Busy time summed over cores.

        A core's busy span already includes IRQ handling and context-switch
        overhead occurring inside it; ``irq_ns``/``switch_ns`` are
        sub-accounts, not additions.
        """
        return sum(core.total_busy_ns() for core in self.cores)

    def executing_ns(self, cores: Optional[List[int]] = None) -> int:
        """Busy time of the selected cores (default: all) minus their
        C-state exit stalls — a core waking from idle is not executing
        instructions and getrusage/mpstat (the paper's instruments) do
        not see that time."""
        indexes = range(len(self.cores)) if cores is None else cores
        return sum(
            self.cores[i].total_busy_ns() - self.cores[i].exit_stall_ns
            for i in indexes
        )

    def cpu_utilization(self, cores: Optional[List[int]] = None) -> float:
        """Mean *executing* fraction of the selected cores since t=0.

        Expressed the way the paper's figures do: 100% = one fully busy
        core, so three cores at 20% each report 60%.
        """
        if self.sim.now == 0:
            return 0.0
        return self.executing_ns(cores) / self.sim.now

    def energy_joules(self) -> float:
        """Cumulative package energy (RAPL analogue)."""
        return self.power.read_joules()

    def getrusage_ns(self, threads: Optional[List[KThread]] = None) -> int:
        """Total CPU time consumed by the given threads (default: all)."""
        pool = self.threads if threads is None else threads
        return sum(t.cputime_ns for t in pool)
