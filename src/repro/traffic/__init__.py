"""Trace-driven replay and adversarial traffic generation.

The subsystem has four parts (ROADMAP item 3):

* :mod:`repro.traffic.trace` — the compact, versioned JSONL trace
  format (named phases, schema validation, sha256 identity, gzip);
* :mod:`repro.traffic.replay` — :class:`TraceReplayProcess`, replaying
  a trace at its own timestamps through the full
  :class:`~repro.nic.traffic.ArrivalProcess` interface;
* :mod:`repro.traffic.generators` — seeded, pure-function generators
  for benign phased mixes and attack workloads;
* :mod:`repro.traffic.adversary` — the T_S-aware adaptive adversary
  and its rate-matched naive-flood control arm.
"""

from repro.traffic.adversary import TsAwareAdversary, constant_flood
from repro.traffic.generators import (
    ARRIVAL_KINDS,
    SHIPPED_TRACES,
    PhaseSpec,
    TraceSpec,
    benign_phased,
    generate,
    http_flood,
    microburst_ddos,
    slow_drip,
    steady_background,
)
from repro.traffic.replay import TraceReplayProcess
from repro.traffic.trace import (
    MAX_FRAME_LEN,
    TRACE_FORMAT,
    TRACE_VERSION,
    Phase,
    Trace,
    TraceError,
)

__all__ = [
    "ARRIVAL_KINDS",
    "MAX_FRAME_LEN",
    "SHIPPED_TRACES",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Phase",
    "PhaseSpec",
    "Trace",
    "TraceError",
    "TraceReplayProcess",
    "TraceSpec",
    "TsAwareAdversary",
    "benign_phased",
    "constant_flood",
    "generate",
    "http_flood",
    "microburst_ddos",
    "slow_drip",
    "steady_background",
]
