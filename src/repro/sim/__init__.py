"""Discrete-event simulation engine.

A minimal, fast, from-scratch event-driven simulator with an integer
nanosecond clock.  Everything else in :mod:`repro` — the CPU scheduler,
the NIC, the traffic sources — is built on top of this package.

Public surface:

* :class:`~repro.sim.core.Simulator` — the event loop and virtual clock.
* :class:`~repro.sim.core.Event` — a one-shot occurrence others can wait on.
* :class:`~repro.sim.rng.RandomStreams` — named, reproducible RNG streams.
* Time helpers: :data:`NS`, :data:`US`, :data:`MS`, :data:`SEC` and
  :func:`ns_to_us` / :func:`us_to_ns` conversions.
"""

from repro.sim.core import Event, Simulator, SimulationError
from repro.sim.rng import RandomStreams
from repro.sim.units import MS, NS, SEC, US, ns_to_ms, ns_to_sec, ns_to_us, us_to_ns

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "RandomStreams",
    "NS",
    "US",
    "MS",
    "SEC",
    "ns_to_us",
    "ns_to_ms",
    "ns_to_sec",
    "us_to_ns",
]
