"""CPU cores: frequency, time accounting, IRQ time injection.

A core is a resource the scheduler multiplexes threads onto.  It tracks:

* the current frequency (set by the governor);
* busy / idle / IRQ time, for CPU-utilization metrics and the power model;
* when it last became idle (the cpuidle model derives the C-state exit
  latency from the length of the idle interval).

Work-vs-wall conversion: thread work is specified in *base-frequency
nanoseconds*; at frequency ``f`` a chunk of ``w`` base-ns takes
``w * base / f`` wall-ns.  The ``performance`` governor keeps ``f = base``
so the common path is the identity.

The execution speed (and the busy-state power draw) only changes at two
points — a frequency write and an SMT sibling's busy/idle flip — so each
core computes both once per such *speed epoch* and the per-chunk
conversions read the cached values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro import config
from repro.kernel.power import core_power_w

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.thread import KThread


class Core:
    """One CPU core of the simulated node."""

    def __init__(self, machine: "Machine", index: int):  # noqa: F821
        self.machine = machine
        self.sim = machine.sim
        self.index = index
        self.base_freq = config.BASE_FREQ_HZ
        #: hyper-threading sibling (None = SMT off for this core)
        self.smt_sibling: Optional["Core"] = None
        self._busy_since: Optional[int] = None
        self.freq = self.base_freq
        #: NUMA node this core belongs to (contiguous blocks across the
        #: configured socket count; 0 for the paper's single-node box)
        nodes = max(1, getattr(machine.cfg, "numa_nodes", 1))
        self.node = index * nodes // max(1, machine.cfg.num_cores)

        self.current: Optional["KThread"] = None
        #: thread that ran most recently (cache-warmth tracking)
        self.last_thread: Optional["KThread"] = None

        # accounting
        self.busy_ns = 0          # thread execution time
        self.irq_ns = 0           # interrupt/softirq stolen time
        self.switch_ns = 0        # context-switch overhead time
        #: C-state exit stalls: inside the busy span but not executing
        #: instructions — excluded from getrusage/mpstat-style CPU
        #: metrics, which is what the paper's figures report
        self.exit_stall_ns = 0
        self.idle_since: Optional[int] = 0  # core starts idle at t=0

        # fault-injection accounting (repro.faults): SMI-style freezes
        self.smi_stalls = 0
        self.smi_stall_ns = 0

    # ------------------------------------------------------------------ #
    # work/wall conversion
    # ------------------------------------------------------------------ #

    @property
    def freq(self) -> int:
        """Governor frequency in Hz."""
        return self._freq

    @freq.setter
    def freq(self, hz: int) -> None:
        # a frequency write opens a new speed epoch
        self._freq = hz
        #: power draw while busy at this frequency (the meter's rate)
        self.busy_w = core_power_w(True, hz, self.base_freq)
        self._refresh_speed()

    def _refresh_speed(self) -> None:
        """Recompute the execution speed: governor frequency, derated
        while the SMT sibling is simultaneously executing."""
        freq = self._freq
        sib = self.smt_sibling
        if sib is not None and sib.is_busy:
            freq = int(freq * config.SMT_SLOWDOWN)
        self._speed = max(1, freq)
        #: work == wall at this speed (the common case: no conversion)
        self.work_is_wall = self._speed == self.base_freq

    def work_to_wall(self, work_ns: int) -> int:
        """Wall-clock ns needed to execute ``work_ns`` base-ns of work."""
        if self.work_is_wall:
            return work_ns
        speed = self._speed
        wall = (work_ns * self.base_freq + speed - 1) // speed
        return max(wall, 1) if work_ns > 0 else 0

    def wall_to_work(self, wall_ns: int) -> int:
        """Base-ns of work accomplished in ``wall_ns`` at current speed."""
        if self.work_is_wall:
            return wall_ns
        return (wall_ns * self._speed) // self.base_freq

    # ------------------------------------------------------------------ #
    # busy/idle bookkeeping (power model hooks)
    # ------------------------------------------------------------------ #

    def mark_busy(self) -> None:
        """Transition idle→busy (dispatch, IRQ on idle core)."""
        if self._busy_since is None:
            # integrate the closing idle interval at its *old* power draw
            self.machine.power.on_core_transition(self)
            sib = self.smt_sibling
            if sib is not None:
                self._settle_sibling_speed(sib, before=True)
            self._busy_since = self.sim.now
            self.idle_since = None
            if sib is not None:
                self._settle_sibling_speed(sib, before=False)

    def mark_idle(self) -> None:
        """Transition busy→idle (runqueue drained)."""
        # integrate the closing busy interval at its *old* power draw
        self.machine.power.on_core_transition(self)
        if self._busy_since is not None:
            sib = self.smt_sibling
            if sib is not None:
                self._settle_sibling_speed(sib, before=True)
            self.busy_ns += self.sim.now - self._busy_since
            self._busy_since = None
            if sib is not None:
                self._settle_sibling_speed(sib, before=False)
        self.idle_since = self.sim.now

    def _settle_sibling_speed(self, sib: "Core", before: bool) -> None:
        """SMT coupling: this core's busy-state flip changes the
        sibling's execution speed.  Before the flip, charge the
        sibling's progress at the old speed; after it, open the
        sibling's new speed epoch and re-program its in-flight chunk."""
        if not before:
            sib._refresh_speed()
        if sib.current is None:
            return
        if before:
            self.machine.scheduler.account_core(sib)
        else:
            self.machine.scheduler.reprogram_core(sib)

    def checkpoint_busy(self) -> None:
        """Fold accumulated busy time into the counter without a state change.

        Used by utilization sampling (the ondemand governor) so a long
        uninterrupted run does not hide inside ``_busy_since``.
        """
        if self._busy_since is not None:
            now = self.sim.now
            self.busy_ns += now - self._busy_since
            self._busy_since = now

    @property
    def is_busy(self) -> bool:
        return self._busy_since is not None

    def idle_duration(self) -> int:
        """How long the core has currently been idle (0 if busy)."""
        if self.idle_since is None:
            return 0
        return self.sim.now - self.idle_since

    # ------------------------------------------------------------------ #
    # IRQ time injection
    # ------------------------------------------------------------------ #

    def inject_irq_time(self, duration_ns: int) -> None:
        """Steal ``duration_ns`` of CPU time for interrupt handling.

        If a thread is running, its current chunk is stretched by the
        handler duration (the scheduler re-programs the completion); if
        the core is idle, the time is simply charged as IRQ time.
        """
        self.irq_ns += duration_ns
        self.machine.scheduler.on_irq_injected(self, duration_ns)

    def smi_stall(self, duration_ns: int) -> None:
        """Freeze the core for ``duration_ns`` (SMI / machine-check /
        page-fault-storm style stall, used by the fault injectors).

        Mechanically an uninterruptible stolen-time window — the same
        splice as :meth:`inject_irq_time` — but accounted separately so
        chaos reports can attribute it.
        """
        self.smi_stalls += 1
        self.smi_stall_ns += duration_ns
        self.inject_irq_time(duration_ns)

    # ------------------------------------------------------------------ #

    def utilization(self, window_busy_ns: int, window_ns: int) -> float:
        """Helper: clamp a busy/window ratio into [0, 1]."""
        if window_ns <= 0:
            return 0.0
        return min(1.0, max(0.0, window_busy_ns / window_ns))

    def total_busy_ns(self) -> int:
        """Busy time including any open running interval."""
        open_interval = 0
        if self._busy_since is not None:
            open_interval = self.sim.now - self._busy_since
        return self.busy_ns + open_interval

    def __repr__(self) -> str:
        state = "busy" if self.is_busy else "idle"
        return f"<Core {self.index} {state} f={self.freq/1e9:.2f}GHz>"


def default_cold_penalty(chunk_work_ns: int) -> int:
    """One-time cold-cache penalty for a thread dispatched after another
    thread used the core.

    The penalty models the indirect cost of a context switch: the first
    ``CACHE_WARMUP_NS`` of work run ``CACHE_WARMUP_FACTOR``× slower.  For
    chunks shorter than the warmup window the penalty is proportionally
    smaller, so a woken thread that only executes a trylock does not pay
    the full toll.
    """
    window = min(chunk_work_ns, config.CACHE_WARMUP_NS)
    return int(window * (config.CACHE_WARMUP_FACTOR - 1.0))
