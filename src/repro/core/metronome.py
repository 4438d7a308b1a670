"""The Metronome thread loop and group orchestration (paper §3.2, Listing 2).

M threads share a set of Rx queues.  Each thread, in an infinite loop:

1. scans every queue, attempting its trylock;
2. on success, drains the queue burst-by-burst until empty, measuring
   the renewal cycle (V, B, N_V) against the queue's shared tracker,
   then releases the lock;
3. sleeps — ``T_S`` if it served at least one queue this round
   (primary), ``T_L`` otherwise (backup) — via the configured sleep
   service (the paper's hr_sleep() or stock nanosleep()).

The timeout values come from a tuner: fixed for the parameter-sweep
experiments, or the adaptive eq.-12 controller targeting a constant
vacation period V̄.

Two robustness mechanisms ride on top of the paper's loop:

* **rotating queue scan** — each thread starts its scan at
  ``(thread_index + iteration) % num_queues`` instead of always at
  queue 0, so no queue is structurally served last by every thread
  (with a single queue the rotation is the identity);
* an opt-in **starvation watchdog** (:class:`WatchdogConfig`): a
  periodic check of head-of-line age and ring occupancy that, past its
  bounds, early-wakes every sleeping thread in the group and clamps the
  timeouts until the backlog clears — the graceful-degradation path
  exercised by the fault-injection harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import config
from repro.core.cycles import CycleStats, QueueCycleTracker
from repro.core.trylock import TryLock
from repro.core.tuning import AdaptiveTuner, TunerBase
from repro.dpdk.app import PacketApp
from repro.kernel.machine import Machine
from repro.kernel.sleep import SleepService
from repro.kernel.thread import Compute, Exit, KThread, ThreadState
from repro.metrics.latency import LatencyStats
from repro.nic.rxqueue import RxQueue
from repro.nic.txqueue import TxBuffer


@dataclass(frozen=True)
class WatchdogConfig:
    """Bounds for the per-queue starvation watchdog.

    Every ``period_ns`` the group checks each shared queue; if the
    oldest sampled packet has waited longer than ``max_age_ns`` or the
    ring holds more than ``max_occupancy`` descriptors, the watchdog
    *escalates*: it wakes every sleeping thread of the group (spurious
    wakes are safe — the scheduler records a pending wake) and clamps
    both timeouts to ``clamp_ts_ns`` until a later check finds all
    queues back inside bounds.
    """

    period_ns: int = 100_000
    max_age_ns: int = 1_000_000
    max_occupancy: int = 768
    clamp_ts_ns: int = 2_000

    def __post_init__(self):
        if self.period_ns <= 0 or self.clamp_ts_ns <= 0:
            raise ValueError("watchdog periods must be positive")
        if self.max_age_ns <= 0 or self.max_occupancy <= 0:
            raise ValueError("watchdog bounds must be positive")


@dataclass
class MetronomeThreadStats:
    """Per-thread counters surfaced by the experiments."""

    name: str
    iterations: int = 0
    busy_tries: int = 0
    primary_rounds: int = 0    # rounds that ended with the short timeout
    backup_rounds: int = 0     # rounds that ended with the long timeout
    packets: int = 0


class _SharedQueue:
    """Everything M threads share about one Rx queue."""

    def __init__(self, machine: Machine, queue: RxQueue):
        self.queue = queue
        #: NUMA node the queue's ring/mbuf memory lives on; threads on a
        #: different socket pay remote-access surcharges when draining
        self.node = getattr(queue, "node", 0)
        self.lock = TryLock(name=f"rxq{queue.index}", tracer=machine.tracer,
                            checks=machine.checks)
        self.tracker = QueueCycleTracker(start_ns=machine.sim.now)
        self.cycles = CycleStats()
        self.txbuf = TxBuffer(machine.sim,
                              batch_threshold=machine.cfg.tx_batch)
        tracer = machine.tracer
        if tracer.enabled:
            self.txbuf.on_flush = (
                lambda sent, q=queue.index: tracer.tx_flush(q, sent)
            )


class MetronomeGroup:
    """Deploys M Metronome threads over shared Rx queues."""

    def __init__(
        self,
        machine: Machine,
        queues: List[RxQueue],
        app: PacketApp,
        tuner: Optional[TunerBase] = None,
        sleep_service: str = "hr_sleep",
        num_threads: Optional[int] = None,
        cores: Optional[List[int]] = None,
        nice: int = 0,
        iterations: Optional[int] = None,
        name: str = "metronome",
        rotate_scan: bool = True,
        watchdog: Optional[WatchdogConfig] = None,
    ):
        if not queues:
            raise ValueError("at least one queue required")
        cfg = machine.cfg
        self.machine = machine
        self.app = app
        self.m = num_threads if num_threads is not None else cfg.num_threads
        if self.m < 1:
            raise ValueError("need at least one thread")
        self.cores = cores if cores is not None else list(range(self.m))
        if len(self.cores) != self.m:
            raise ValueError("one core assignment per thread required")
        self.nice = nice
        self.burst = cfg.rx_burst
        self.iterations = iterations
        self.name = name
        self.tuner: TunerBase = tuner or AdaptiveTuner(
            vbar_ns=cfg.vbar_ns, tl_ns=cfg.tl_ns, m=self.m, alpha=cfg.alpha
        )
        self.shared: List[_SharedQueue] = [
            _SharedQueue(machine, q) for q in queues
        ]
        self.latency = LatencyStats()
        for sq in self.shared:
            sq.txbuf.on_tx = lambda pkt: self.latency.add(pkt.latency_ns)
        self.service: SleepService = machine.sleep_service(sleep_service)
        self.threads: List[KThread] = []
        self.thread_stats: List[MetronomeThreadStats] = []
        self.rotate_scan = rotate_scan
        self.watchdog = watchdog
        #: timeout clamp while the watchdog is escalated (None = off)
        self._ts_clamp_ns: Optional[int] = None
        self.watchdog_escalations = 0
        self.watchdog_wakes = 0
        #: worst head-of-line age the watchdog ever observed
        self.watchdog_max_age_ns = 0
        #: time the current escalation started (None when clear)
        self._engaged_since: Optional[int] = None
        #: time the last escalation cleared (chaos recovery metric)
        self.watchdog_last_clear_ns: Optional[int] = None
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Publish the group's ad-hoc stats into the machine registry."""
        reg = self.machine.metrics
        prefix, n = self.name, 2
        while f"{prefix}.packets" in reg:  # second group with this name
            prefix = f"{self.name}.{n}"
            n += 1
        self.metrics_prefix = prefix
        reg.gauge(f"{prefix}.packets", fn=lambda: self.total_packets)
        reg.gauge(f"{prefix}.iterations", fn=lambda: self.total_iterations)
        reg.gauge(f"{prefix}.busy_tries", fn=lambda: self.busy_tries)
        reg.gauge(f"{prefix}.drops", fn=self.total_drops)
        for sq in self.shared:
            reg.gauge(
                reg.unique_name(f"rxq{sq.queue.index}.drops"),
                fn=lambda q=sq.queue: q.drops,
            )
        if self.watchdog is not None:
            reg.gauge(
                f"{prefix}.watchdog.escalations",
                fn=lambda: self.watchdog_escalations,
            )
            reg.gauge(
                f"{prefix}.watchdog.wakes", fn=lambda: self.watchdog_wakes
            )
            reg.gauge(
                f"{prefix}.watchdog.max_age_ns",
                fn=lambda: self.watchdog_max_age_ns,
            )
            self._engaged_hist = reg.histogram(
                f"{prefix}.watchdog.engaged_ns"
            )

    # ------------------------------------------------------------------ #

    def start(self) -> List[KThread]:
        """Spawn the M threads (idempotent guard: call once)."""
        if self.threads:
            raise RuntimeError("group already started")
        reg = self.machine.metrics
        for i in range(self.m):
            stats = MetronomeThreadStats(name=f"{self.name}-{i}")
            self.thread_stats.append(stats)
            for field_name in ("iterations", "busy_tries", "packets",
                               "primary_rounds", "backup_rounds"):
                reg.gauge(
                    f"{self.metrics_prefix}.{i}.{field_name}",
                    fn=lambda s=stats, f=field_name: getattr(s, f),
                )
            thread = self.machine.spawn(
                lambda kt, s=stats, idx=i: self._body(kt, s, idx),
                name=stats.name,
                nice=self.nice,
                core=self.cores[i],
            )
            self.threads.append(thread)
        if self.watchdog is not None:
            self.machine.sim.call_after(
                self.watchdog.period_ns, self._watchdog_check
            )
        return self.threads

    # ------------------------------------------------------------------ #
    # starvation watchdog (graceful degradation)
    # ------------------------------------------------------------------ #

    @property
    def watchdog_engaged(self) -> bool:
        return self._engaged_since is not None

    def _watchdog_check(self) -> None:
        wd = self.watchdog
        if self.all_done():
            if self._engaged_since is not None:
                self._watchdog_clear()
            return
        sim = self.machine.sim
        breached = None
        for sq in self.shared:
            age = sq.queue.head_age_ns()
            if age > self.watchdog_max_age_ns:
                self.watchdog_max_age_ns = age
            if age > wd.max_age_ns or sq.queue.occupancy() > wd.max_occupancy:
                if breached is None:
                    breached = (sq.queue.index, age, sq.queue.occupancy())
        if breached is not None:
            self._watchdog_escalate(*breached)
        elif self._engaged_since is not None:
            self._watchdog_clear()
        sim.call_after(wd.period_ns, self._watchdog_check)

    def _watchdog_escalate(self, queue_index: int, age: int, occ: int) -> None:
        self.watchdog_escalations += 1
        if self._engaged_since is None:
            self._engaged_since = self.machine.sim.now
        self._ts_clamp_ns = self.watchdog.clamp_ts_ns
        woken = 0
        for t in self.threads:
            if t.state is ThreadState.SLEEPING:
                t.wake()
                woken += 1
        self.watchdog_wakes += woken
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.watchdog_escalate(queue_index, age, occ, woken)

    def _watchdog_clear(self) -> None:
        engaged_ns = self.machine.sim.now - self._engaged_since
        self._engaged_since = None
        self._ts_clamp_ns = None
        self.watchdog_last_clear_ns = self.machine.sim.now
        self._engaged_hist.observe(engaged_ns)
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.watchdog_clear(engaged_ns)

    # ------------------------------------------------------------------ #

    def _body(self, kt: KThread, stats: MetronomeThreadStats, idx: int = 0):
        sim = self.machine.sim
        service = self.service
        tracer = self.machine.tracer
        nq = len(self.shared)
        # NUMA memory penalties per queue, aligned with self.shared:
        # (trylock, per-burst, per-packet) surcharges when the queue's
        # ring memory homes on a socket other than this thread's.  All
        # zero on the paper's single-node testbed, so the Compute sums
        # below are arithmetically identical to the pre-NUMA loop.
        my_node = kt.core.node
        penalties = [
            (0, 0, 0) if sq.node == my_node else (
                config.NUMA_REMOTE_TRYLOCK_NS,
                config.NUMA_REMOTE_BURST_NS,
                config.NUMA_REMOTE_PKT_NS,
            )
            for sq in self.shared
        ]
        # scan orders: the identity, and every rotation of it (indexed by
        # starting offset) so no queue is structurally the last one every
        # thread reaches
        in_order = range(nq)
        rotations = [[(off + k) % nq for k in range(nq)] for off in range(nq)]
        # the fixed-cost actions, built once (the scheduler never
        # mutates an action): the trylock per queue, the contended
        # trylock's extra, the poll that finds the queue empty, unlock
        trylocks = [Compute(config.TRYLOCK_NS + t_extra)
                    for t_extra, _b, _p in penalties]
        contended = Compute(config.TRYLOCK_CONTENDED_NS - config.TRYLOCK_NS)
        poll_empty = Compute(config.RX_POLL_EMPTY_NS)
        unlock = Compute(config.UNLOCK_NS)
        while self.iterations is None or stats.iterations < self.iterations:
            stats.iterations += 1
            lock_taken = False
            if self.rotate_scan:
                order = rotations[(idx + stats.iterations) % nq]
            else:
                order = in_order
            for qi in order:
                sq = self.shared[qi]
                _t, b_extra, p_extra = penalties[qi]
                yield trylocks[qi]
                if not sq.lock.try_acquire(kt):
                    stats.busy_tries += 1
                    yield contended
                    continue
                lock_taken = True
                backlog = sq.queue.occupancy()
                sq.tracker.begin_busy(sim.now, backlog)
                if tracer.enabled:
                    tracer.drain_begin(kt, sq.queue.index, backlog)
                drained = 0
                while True:
                    n, tagged = sq.queue.rx_burst(self.burst)
                    if n == 0:
                        # the final poll that finds the queue drained
                        yield poll_empty
                        break
                    stats.packets += n
                    drained += n
                    sq.tracker.note_packets(n)
                    will_flush = (
                        sq.txbuf.pending + n >= sq.txbuf.batch_threshold
                    )
                    cost = (
                        config.RX_BURST_FIXED_NS + self.app.batch_cost_ns(n)
                        + b_extra + n * p_extra
                    )
                    if will_flush:
                        cost += config.TX_FLUSH_NS
                    yield Compute(cost)
                    if tagged:
                        self.app.handle(tagged)
                    sq.txbuf.enqueue(n, tagged)
                record = sq.tracker.end_busy(sim.now, stats.name)
                sq.cycles.add(record)
                self.tuner.observe(record)
                if tracer.enabled:
                    tracer.drain_end(kt, sq.queue.index, drained)
                yield unlock
                sq.lock.release(kt)

            if lock_taken:
                stats.primary_rounds += 1
                timeout = self.tuner.ts_ns()
            else:
                stats.backup_rounds += 1
                timeout = self.tuner.tl_ns()
            clamp = self._ts_clamp_ns
            if clamp is not None:
                # watchdog engaged: both roles wake at the clamped pace
                timeout = min(timeout, clamp)
            yield from service.call(kt, timeout)
        yield Exit()

    # ------------------------------------------------------------------ #
    # aggregate statistics
    # ------------------------------------------------------------------ #

    @property
    def busy_tries(self) -> int:
        return sum(s.busy_tries for s in self.thread_stats)

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.thread_stats)

    @property
    def total_packets(self) -> int:
        return sum(s.packets for s in self.thread_stats)

    def busy_try_fraction(self) -> float:
        """Failed trylocks / wake rounds — the Figures 7-8 metric."""
        rounds = self.total_iterations
        if rounds == 0:
            return 0.0
        return self.busy_tries / rounds

    def cycle_stats(self, queue_index: int = 0) -> CycleStats:
        return self.shared[queue_index].cycles

    def total_drops(self) -> int:
        return sum(sq.queue.drops for sq in self.shared)

    def loss_fraction(self) -> float:
        arrived = 0
        for sq in self.shared:
            sq.queue.sync()
            arrived += sq.queue.arrived_total
        if arrived == 0:
            return 0.0
        return self.total_drops() / arrived

    def cpu_time_ns(self) -> int:
        """getrusage-style CPU time of the group's threads."""
        return sum(t.cputime_ns for t in self.threads)

    def all_done(self) -> bool:
        return all(not t.is_alive() for t in self.threads)
