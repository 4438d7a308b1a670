"""The fault engine: arms a plan's injectors and answers kernel hooks.

Installed via :meth:`repro.kernel.machine.Machine.install_faults`.  The
kernel model consults the engine at three points:

* :meth:`timer_extra_latency_ns` — every hrtimer fire (timer_miss);
* :meth:`drop_wakeup` — every timer callback (lost_wakeup);
* :meth:`sleep_skew_ns` — every sleep arming (clock_drift).

Each hook sums/ORs over the injectors of its kind, so overlapping specs
compose.  Traffic-side injectors act on the
:class:`~repro.nic.traffic.FaultableProcess` wrappers registered through
:meth:`register_process`.

Fault activity is observable three ways: per-kind counters in the
machine's :class:`~repro.metrics.registry.MetricsRegistry`
(``faults.<kind>.episodes`` / ``faults.<kind>.events``), ``fault.*``
spans and instants in the tracer, and the per-injector ``active`` flags.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.faults.injectors import INJECTOR_CLASSES, Injector
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:
    import random

    from repro.kernel.machine import Machine
    from repro.nic.traffic import FaultableProcess


class FaultEngine:
    """Arms one injector per spec of ``plan`` on ``machine``."""

    def __init__(self, machine: "Machine", plan: FaultPlan):
        self.machine = machine
        self.plan = plan
        self._rngs: Dict[str, "random.Random"] = {}
        #: FaultableProcess wrappers the traffic injectors act on
        self.processes: List["FaultableProcess"] = []
        self.injectors: List[Injector] = [
            INJECTOR_CLASSES[spec.kind](self, spec) for spec in plan.specs
        ]
        self._by_kind: Dict[str, List[Injector]] = {}
        for inj in self.injectors:
            self._by_kind.setdefault(inj.kind, []).append(inj)
        self._started = False
        # eager counters so every kind in the plan is visible even with
        # zero events (the chaos report reads them unconditionally)
        reg = machine.metrics
        self._episode_counters = {
            kind: reg.counter(f"faults.{kind}.episodes")
            for kind in plan.kinds()
        }
        self._event_counters = {
            kind: reg.counter(f"faults.{kind}.events")
            for kind in plan.kinds()
        }

    # ------------------------------------------------------------------ #

    def stream(self, kind: str):
        """The shared per-kind RNG stream (``faults.<kind>``)."""
        rng = self._rngs.get(kind)
        if rng is None:
            rng = self.machine.streams.stream(f"faults.{kind}")
            self._rngs[kind] = rng
        return rng

    def start(self) -> None:
        """Schedule every injector's window edges (idempotent guard)."""
        if self._started:
            raise RuntimeError("fault engine already started")
        self._started = True
        for inj in self.injectors:
            inj.start()

    def register_process(self, process: "FaultableProcess") -> None:  # noqa: F821
        """Expose a traffic process to microburst/pause injectors."""
        self.processes.append(process)

    def snapshot_state(self) -> dict:
        """Checkpoint fingerprint: per-kind counters + active windows."""
        kinds = sorted(self.plan.kinds())
        return {
            "plan": self.plan.to_dict(),
            "started": self._started,
            "episodes": {k: self.episodes(k) for k in kinds},
            "events": {k: self.events(k) for k in kinds},
            "active": [
                [i, inj.kind] for i, inj in enumerate(self.injectors)
                if getattr(inj, "active", False)
            ],
        }

    # -- bookkeeping (called by injectors) ------------------------------- #

    def note_episode(self, kind: str) -> None:
        self._episode_counters[kind].inc()

    def note_event(self, kind: str, **args) -> None:
        self._event_counters[kind].inc()
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.fault_event(kind, **args)

    def episodes(self, kind: str) -> int:
        c = self._episode_counters.get(kind)
        return c.value if c is not None else 0

    def events(self, kind: str) -> int:
        c = self._event_counters.get(kind)
        return c.value if c is not None else 0

    # -- kernel hooks ---------------------------------------------------- #
    # Hot paths guard with `machine.faults is not None` before calling,
    # so a machine without an engine never pays these sums.

    def timer_extra_latency_ns(self, core_index: int) -> int:
        """Extra interrupt-delivery latency for a timer firing now."""
        total = 0
        for inj in self._by_kind.get("timer_miss", ()):
            total += inj.extra_latency_ns(core_index)
        return total

    def drop_wakeup(self, core_index: int) -> bool:
        """True if the expiry callback about to run must be dropped."""
        for inj in self._by_kind.get("lost_wakeup", ()):
            if inj.drop(core_index):
                return True
        return False

    def sleep_skew_ns(self, duration_ns: int) -> int:
        """Expiry overshoot for a sleep of ``duration_ns`` armed now."""
        total = 0
        for inj in self._by_kind.get("clock_drift", ()):
            total += inj.skew_ns(duration_ns)
        return total
