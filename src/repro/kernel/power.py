"""Frequency governors and a RAPL-like energy meter.

The power model is deliberately simple but physically shaped:

* a constant package floor (uncore, DRAM refresh share);
* per-core leakage when idle;
* per-core active power scaling as ``(f / f_max) ** FREQ_POWER_EXP``
  (dynamic power ∝ f·V² with V roughly ∝ f).

Energy is integrated piecewise-exactly: every busy/idle or frequency
transition closes the previous interval at its known power draw, so the
meter is an exact integral of the model, not a sampled approximation.

Governors (paper §5.4, Figure 13):

* ``performance`` — all cores pinned at max frequency;
* ``ondemand`` — per-core sampling every 10 ms: above the up-threshold
  jump to max, otherwise scale frequency down proportionally.  Lower
  frequency stretches execution, so CPU *utilization rises* while power
  falls — the trade-off Figure 13 illustrates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro import config

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.cpu import Core
    from repro.kernel.machine import Machine


def core_power_w(busy: bool, freq_hz: int, base_freq_hz: int) -> float:
    """Instantaneous per-core power draw under the model."""
    if not busy:
        return config.CORE_IDLE_W
    rel = freq_hz / base_freq_hz
    dynamic = (config.CORE_ACTIVE_MAX_W - config.CORE_IDLE_W) * (
        rel ** config.FREQ_POWER_EXP
    )
    return config.CORE_IDLE_W + dynamic


class PowerMeter:
    """Integrates package energy over simulated time (RAPL analogue)."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.sim = machine.sim
        self._last_t: List[int] = [0] * len(machine.cores)
        self._energy_j: float = 0.0

    def on_core_transition(self, core: "Core") -> None:
        """Close the open interval for ``core`` at its *previous* state.

        Must be called *before* the caller mutates busy/idle or freq —
        :meth:`Core.mark_busy`/:meth:`mark_idle` call it first, and the
        governor calls it before writing the new frequency.  The draw is
        the core's cached busy-state watts (``core_power_w`` at its
        frequency) or the idle floor.
        """
        now = self.sim.now
        index = core.index
        dt = now - self._last_t[index]
        if dt > 0:
            watts = core.busy_w if core.is_busy else config.CORE_IDLE_W
            self._energy_j += watts * dt * 1e-9
            self._last_t[index] = now

    def read_joules(self) -> float:
        """Current cumulative package energy (closes all open intervals)."""
        for core in self.machine.cores:
            self.on_core_transition(core)
        pkg = config.PKG_IDLE_W * self.sim.now * 1e-9
        return self._energy_j + pkg

    def peek_joules(self) -> float:
        """Like :meth:`read_joules` but pure: open intervals are summed
        without being closed.  The checkpoint layer reads through here —
        closing intervals would regroup the float accumulation
        (``w*(dt1+dt2)`` vs ``w*dt1 + w*dt2``) and nudge the final
        energy by an ulp, breaking byte-identical continuation."""
        now = self.sim.now
        pending = 0.0
        for core in self.machine.cores:
            dt = now - self._last_t[core.index]
            if dt > 0:
                watts = core.busy_w if core.is_busy else config.CORE_IDLE_W
                pending += watts * dt * 1e-9
        pkg = config.PKG_IDLE_W * now * 1e-9
        return self._energy_j + pending + pkg


class PerformanceGovernor:
    """All cores at maximum frequency, always."""

    name = "performance"

    def __init__(self, machine: "Machine"):
        for core in machine.cores:
            core.freq = config.BASE_FREQ_HZ

    def start(self) -> None:
        """Nothing to sample."""


class OndemandGovernor:
    """Per-core demand-driven frequency scaling (Linux ondemand)."""

    name = "ondemand"

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.sim = machine.sim
        self._busy_snapshot = [0] * len(machine.cores)
        self._last_sample = 0

    def start(self) -> None:
        self.sim.call_after(config.ONDEMAND_SAMPLE_NS, self._sample)

    def _sample(self) -> None:
        now = self.sim.now
        window = now - self._last_sample
        self._last_sample = now
        for core in self.machine.cores:
            core.checkpoint_busy()
            busy = core.busy_ns + core.irq_ns + core.switch_ns
            util = core.utilization(busy - self._busy_snapshot[core.index], window)
            self._busy_snapshot[core.index] = busy
            self._set_freq(core, util)
        self.sim.call_after(config.ONDEMAND_SAMPLE_NS, self._sample)

    def _set_freq(self, core: "Core", util: float) -> None:
        base = config.BASE_FREQ_HZ
        if util >= config.ONDEMAND_UP_THRESHOLD:
            new_freq = base
        else:
            target = base * util / config.ONDEMAND_UP_THRESHOLD
            new_freq = int(min(base, max(config.MIN_FREQ_HZ, target)))
        if new_freq != core.freq:
            self.machine.power.on_core_transition(core)
            # the running chunk's progress so far ran at the old speed:
            # charge it before the write, re-program it after
            scheduler = self.machine.scheduler
            scheduler.account_core(core)
            core.freq = new_freq
            scheduler.reprogram_core(core)


def make_governor(machine: "Machine", name: str):
    """Factory for governors by sysfs name."""
    if name == "performance":
        return PerformanceGovernor(machine)
    if name == "ondemand":
        return OndemandGovernor(machine)
    raise ValueError(f"unknown governor {name!r}")
