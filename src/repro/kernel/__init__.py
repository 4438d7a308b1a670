"""A discrete-event model of the Linux kernel facilities Metronome relies on.

Subsystems (mirroring DESIGN.md §2):

* :mod:`repro.kernel.nice` — nice levels and CFS load weights.
* :mod:`repro.kernel.thread` — kernel threads and the action protocol
  their generator bodies speak (compute, spin, suspend, exit).
* :mod:`repro.kernel.cpu` — cores: frequency, busy/idle accounting,
  IRQ time injection, cache-warmup penalty.
* :mod:`repro.kernel.scheduler` — a CFS-like scheduler: per-core
  runqueues ordered by virtual runtime, scheduling ticks, wakeup
  preemption, sleeper fairness.
* :mod:`repro.kernel.hrtimer` — high-resolution per-core timer queues
  (the paper's Figure 1 wakeup path).
* :mod:`repro.kernel.timerwheel` — jiffy-resolution timers (one map
  from expiry jiffy to callbacks), used by the OS-noise model.
* :mod:`repro.kernel.cpuidle` — C-state exit latency model (menu-governor
  style: deeper states for longer idles).
* :mod:`repro.kernel.sleep` — the two sleep services under study:
  ``nanosleep()`` and the paper's ``hr_sleep()``.
* :mod:`repro.kernel.power` — frequency governors and a RAPL-like
  energy meter.
* :mod:`repro.kernel.noise` — OS background noise (kernel daemons).
* :mod:`repro.kernel.machine` — the assembled testbed node.
"""

from repro.kernel.machine import Machine
from repro.kernel.sleep import HrSleep, Nanosleep, SleepService
from repro.kernel.thread import (
    BusySpin,
    Compute,
    Exit,
    KThread,
    Suspend,
    ThreadState,
    YieldCpu,
)

__all__ = [
    "Machine",
    "KThread",
    "ThreadState",
    "Compute",
    "BusySpin",
    "Suspend",
    "YieldCpu",
    "Exit",
    "SleepService",
    "Nanosleep",
    "HrSleep",
]
