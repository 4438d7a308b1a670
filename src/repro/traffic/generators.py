"""Seeded trace generators: benign phased mixes and attack workloads.

Every generator is a **pure function of (spec, seed)**: the same spec
and seed always produce a byte-identical trace (same sha256), because
all randomness is drawn from per-phase named streams of a private
:class:`~repro.sim.rng.RandomStreams` factory.  That makes generated
traces cacheable, auditable, and safe to regenerate inside campaign
workers.

The catalogue mirrors the Waterclau benign/attack generator split
(ROADMAP item 3):

* :func:`benign_phased` — the temporal mix the phase-tracking figure
  replays: HTTP peak → DNS burst → stable SSH → light UDP;
* :func:`http_flood` — probe, then a sustained line-rate-order flood;
* :func:`microburst_ddos` — ultra-short saturating bursts over a low
  duty cycle (mean rate is modest; the slugs are not);
* :func:`slow_drip` — low-and-slow trickle across a huge flow space
  (flow-table pressure, not bandwidth).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from math import log as _log
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.sim.rng import RandomStreams
from repro.sim.units import MS, SEC
from repro.traffic.trace import MAX_FRAME_LEN, Phase, Trace

#: arrival models a PhaseSpec may request
ARRIVAL_KINDS = ("cbr", "poisson")


@dataclass(frozen=True)
class PhaseSpec:
    """One generated phase: a rate, an arrival model, and a flow space.

    ``burst_ns``/``gap_ns`` carve the phase into on/off microbursts:
    traffic runs at ``rate_pps`` for ``burst_ns``, is silent for
    ``gap_ns``, and repeats — the DDoS slug shape.  Both zero means the
    phase is continuous.
    """

    name: str
    duration_ns: int
    rate_pps: int
    arrival: str = "poisson"
    frame_len: int = 64
    flows: int = 256
    burst_ns: int = 0
    gap_ns: int = 0

    def __post_init__(self):
        for field in ("duration_ns", "rate_pps", "frame_len", "flows",
                      "burst_ns", "gap_ns"):
            value = getattr(self, field)
            # exact type: bool is an int subclass, and a float would
            # fail (or only warn) deep inside the draws
            if type(value) is not int:
                raise ValueError(f"phase {self.name!r}: {field} {value!r} "
                                 "is not an integer")
        if self.duration_ns <= 0:
            raise ValueError(f"phase {self.name!r}: non-positive duration")
        if self.rate_pps < 0:
            raise ValueError(f"phase {self.name!r}: negative rate")
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(
                f"phase {self.name!r}: unknown arrival {self.arrival!r} "
                f"(known: {', '.join(ARRIVAL_KINDS)})"
            )
        if not 1 <= self.frame_len <= MAX_FRAME_LEN:
            raise ValueError(f"phase {self.name!r}: frame_len "
                             f"{self.frame_len} outside [1, {MAX_FRAME_LEN}]")
        if self.flows <= 0:
            raise ValueError(f"phase {self.name!r}: flows must be positive")
        if self.flows > 2 ** 63:  # flow ids fill an int64 column
            raise ValueError(f"phase {self.name!r}: flows {self.flows} "
                             "above 2**63 (flow ids are int64)")
        for field in ("burst_ns", "gap_ns"):
            if getattr(self, field) < 0:
                raise ValueError(f"phase {self.name!r}: negative {field}")
        if (self.burst_ns > 0) != (self.gap_ns > 0):
            raise ValueError(
                f"phase {self.name!r}: burst_ns and gap_ns go together"
            )

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "duration_ns": self.duration_ns,
            "rate_pps": self.rate_pps,
            "arrival": self.arrival,
            "frame_len": self.frame_len,
            "flows": self.flows,
            "burst_ns": self.burst_ns,
            "gap_ns": self.gap_ns,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "PhaseSpec":
        known = {f.name for f in fields(cls)}
        unknown = [key for key in d if key not in known]
        if unknown:
            raise ValueError(f"phase {d.get('name')!r}: unknown key(s) "
                             f"{', '.join(map(repr, unknown))}")
        return cls(**d)


@dataclass(frozen=True)
class TraceSpec:
    """A whole generated trace: named, described, phase by phase."""

    name: str
    phases: Tuple[PhaseSpec, ...] = ()
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValueError("trace spec needs a name")
        if not self.phases:
            raise ValueError(f"trace spec {self.name!r} has no phases")
        object.__setattr__(self, "phases", tuple(self.phases))

    @property
    def duration_ns(self) -> int:
        return sum(p.duration_ns for p in self.phases)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "description": self.description,
            "phases": [p.to_dict() for p in self.phases],
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "TraceSpec":
        return cls(
            name=d["name"],
            description=d.get("description", ""),
            phases=tuple(PhaseSpec.from_dict(p) for p in d.get("phases", ())),
        )


def _gen_window(rng, spec: PhaseSpec, w_start: int, w_end: int,
                times: array, flows: array) -> None:
    """Emit one continuous traffic window of ``spec``: its arrival
    times and one flow draw per packet, in order.

    Each record draws straight from ``rng``'s Mersenne Twister, the
    draws ``expovariate``/``randrange`` make on CPython 3.10–3.13: a
    Poisson gap ``-log(1 - random()) / lam`` (at least 1 ns), then a
    flow ``getrandbits(nbits)`` redrawn while ``>= flows``, with
    ``nbits = flows.bit_length()``.  The gap that passes ``w_end`` is
    drawn and dropped, with no flow after it; a CBR record draws its
    flow only.  ``tests/traffic/reference.py`` keeps the stdlib-call
    loop.
    """
    rate = spec.rate_pps
    if rate <= 0:
        return
    n_flows = spec.flows
    nbits = n_flows.bit_length()
    bits = rng.getrandbits
    add_flow = flows.append
    if spec.arrival == "cbr":
        # exact integer spacing: packet k >= 1 at w_start +
        # ceil(k * SEC / rate), for every k that lands by w_end
        count = (w_end - w_start) * rate // SEC
        times.extend(w_start + (k * SEC + rate - 1) // rate
                     for k in range(1, count + 1))
        for _ in range(count):
            r = bits(nbits)
            while r >= n_flows:
                r = bits(nbits)
            add_flow(r)
    else:  # poisson
        lam = rate / SEC  # packets per ns
        rand, add_time = rng.random, times.append
        t = w_start
        while True:
            # a gap is never negative: int() of -0.0 is 0
            t += int(-_log(1.0 - rand()) / lam) or 1
            if t > w_end:
                break
            add_time(t)
            r = bits(nbits)
            while r >= n_flows:
                r = bits(nbits)
            add_flow(r)


def generate(spec: TraceSpec, seed: int) -> Trace:
    """Materialize ``spec`` into a validated trace.  Pure in (spec, seed)."""
    streams = RandomStreams(seed)
    # flat int64 buffers (8 bytes a record) that become the trace's
    # times and flows columns without a copy
    times = array("q")
    flows = array("q")
    per_phase: List[int] = []  # records each phase emitted
    phases: List[Phase] = []
    cursor = 0
    for index, ph in enumerate(spec.phases):
        rng = streams.stream(f"traffic.gen.{spec.name}.{index}.{ph.name}")
        p_start, p_end = cursor, cursor + ph.duration_ns
        phases.append(Phase(ph.name, p_start, p_end))
        before = len(times)
        if ph.burst_ns > 0:
            w = p_start
            while w < p_end:
                _gen_window(rng, ph, w, min(w + ph.burst_ns, p_end),
                            times, flows)
                w += ph.burst_ns + ph.gap_ns
        else:
            _gen_window(rng, ph, p_start, p_end, times, flows)
        per_phase.append(len(times) - before)
        cursor = p_end
    trace = Trace.from_columns(
        times,
        np.repeat([ph.frame_len for ph in spec.phases], per_phase),
        flows,
        phases=phases,
        meta={"generator": spec.name, "seed": seed,
              "description": spec.description},
    )
    trace.validate()
    return trace


# --------------------------------------------------------------------- #
# catalogue
# --------------------------------------------------------------------- #


def _split(duration_ns: int, weights: Tuple[int, ...]) -> List[int]:
    """Partition a duration proportionally; remainders go to the last."""
    total = sum(weights)
    parts = [duration_ns * w // total for w in weights[:-1]]
    parts.append(duration_ns - sum(parts))
    return parts


def benign_phased(duration_ns: int = 200 * MS, scale: float = 1.0) -> TraceSpec:
    """The benign temporal mix: HTTP peak → DNS burst → SSH → light UDP."""
    d = _split(duration_ns, (30, 15, 35, 20))

    def r(pps: int) -> int:
        return max(0, int(pps * scale))

    return TraceSpec(
        name="benign",
        description="benign phased mix: HTTP peak, DNS burst, stable SSH, "
                    "light UDP",
        phases=(
            PhaseSpec("http_peak", d[0], r(3_000_000), "poisson",
                      frame_len=512, flows=2048),
            PhaseSpec("dns_burst", d[1], r(6_000_000), "poisson",
                      frame_len=96, flows=4096),
            PhaseSpec("ssh_steady", d[2], r(800_000), "cbr",
                      frame_len=160, flows=64),
            PhaseSpec("udp_light", d[3], r(200_000), "poisson",
                      frame_len=256, flows=128),
        ),
    )


def http_flood(duration_ns: int = 200 * MS,
               peak_pps: int = 8_000_000) -> TraceSpec:
    """Volumetric HTTP flood: a probe, the flood, then a relent."""
    d = _split(duration_ns, (20, 60, 20))
    return TraceSpec(
        name="http-flood",
        description="volumetric HTTP flood with probe and relent phases",
        phases=(
            PhaseSpec("probe", d[0], 400_000, "poisson",
                      frame_len=512, flows=1024),
            PhaseSpec("flood", d[1], peak_pps, "cbr",
                      frame_len=64, flows=8192),
            PhaseSpec("relent", d[2], 800_000, "poisson",
                      frame_len=512, flows=1024),
        ),
    )


def microburst_ddos(duration_ns: int = 200 * MS,
                    burst_pps: int = 12_000_000) -> TraceSpec:
    """Saturating 50 µs slugs at a 5% duty cycle: low mean, brutal peaks."""
    return TraceSpec(
        name="microburst-ddos",
        description="12 Mpps 50us microbursts every 1 ms (5% duty cycle)",
        phases=(
            PhaseSpec("microbursts", duration_ns, burst_pps, "cbr",
                      frame_len=64, flows=4096,
                      burst_ns=50_000, gap_ns=950_000),
        ),
    )


def slow_drip(duration_ns: int = 200 * MS,
              rate_pps: int = 50_000) -> TraceSpec:
    """Low-and-slow trickle across a huge flow space (table pressure)."""
    return TraceSpec(
        name="slow-drip",
        description="low-rate drip across 65536 flows — state pressure, "
                    "not bandwidth",
        phases=(
            PhaseSpec("drip", duration_ns, rate_pps, "poisson",
                      frame_len=64, flows=65536),
        ),
    )


def steady_background(duration_ns: int = 200 * MS,
                      rate_pps: int = 1_500_000) -> TraceSpec:
    """A single steady Poisson phase — the adversary figure's backdrop."""
    return TraceSpec(
        name="steady-background",
        description="steady Poisson background traffic",
        phases=(
            PhaseSpec("steady", duration_ns, rate_pps, "poisson",
                      frame_len=64, flows=512),
        ),
    )


#: the shipped generator catalogue (CLI ``repro traffic generate <name>``)
SHIPPED_TRACES: Dict[str, Callable[..., TraceSpec]] = {
    "benign": benign_phased,
    "http-flood": http_flood,
    "microburst-ddos": microburst_ddos,
    "slow-drip": slow_drip,
    "steady-background": steady_background,
}
