"""Deterministic sim-state checkpoint/restore.

The :class:`~repro.kernel.machine.Machine` is deterministic and
self-contained: a run is a pure function of its config, its seed, and
the workload wired onto it.  A checkpoint therefore has two halves:

* **exact state** where the interpreter lets us capture it — every RNG
  stream's full generator state (:meth:`RandomStreams.snapshot_state`
  round-trips through ``getstate``/``setstate``), plus all the plain
  counters of the kernel/NIC/fault models;
* **structural fingerprints** where it does not — the event calendar
  and the armed hrtimers hold live callbacks (bound methods over
  generator coroutines), which no serializer can move between
  processes.  For those the snapshot records a content digest of the
  observable structure (pending ``(time, seq)`` pairs, armed expiries,
  ring occupancy, ...).

Restore is **verified deterministic replay**: rebuild the machine and
workload from the same recipe, run it to the snapshot's time, and check
every component — exact state byte-for-byte, structures digest-for-
digest — against the capture (:func:`restore` raises
:exc:`SnapshotMismatch` otherwise).  Because the sim is deterministic,
the restored run then continues byte-identical to the uninterrupted
one; the tests in ``tests/sim/test_snapshot.py`` and the chaos
replay-debug mode (``repro chaos --checkpoint-before-fault``) assert
exactly that.  Capturing draws no randomness and schedules nothing, so
taking a snapshot never changes a run's results.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:  # pragma: no cover — avoids a kernel<->sim cycle
    from repro.kernel.machine import Machine

#: bump when the capture layout changes; mismatched versions never
#: compare component-by-component (the contract is exact equality)
SNAPSHOT_VERSION = 1


class SnapshotMismatch(RuntimeError):
    """A replayed machine did not reach the checkpointed state."""

    def __init__(self, mismatches: List[str]):
        self.mismatches = list(mismatches)
        preview = "; ".join(self.mismatches[:4])
        more = len(self.mismatches) - 4
        if more > 0:
            preview += f"; ... {more} more"
        super().__init__(f"restored state diverges: {preview}")


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=str)


def _digest(obj: Any) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()


@dataclass
class MachineState:
    """One machine checkpoint: exact state + structural fingerprints.

    Plain data with JSON round-trip (the :mod:`repro.faults.plan`
    idiom), so checkpoints can be written next to campaign artifacts
    and verified from a completely fresh process.
    """

    t: int
    seed: int
    label: str = ""
    version: int = SNAPSHOT_VERSION
    components: Dict[str, Any] = field(default_factory=dict)

    def digest(self) -> str:
        """Content address of the whole captured state."""
        return _digest({"t": self.t, "seed": self.seed,
                        "version": self.version,
                        "components": self.components})

    def size_bytes(self) -> int:
        """Serialized size (``repro chaos --checkpoint-before-fault``
        reports it)."""
        return len(_canonical(self.to_dict()).encode())

    def diff(self, other: "MachineState") -> List[str]:
        """Human-readable component mismatches (empty = identical)."""
        out: List[str] = []
        if self.version != other.version:
            return [f"snapshot version {self.version} != {other.version}"]
        if self.t != other.t:
            out.append(f"time: t={self.t} != t={other.t}")
        if self.seed != other.seed:
            out.append(f"seed: {self.seed} != {other.seed}")
        names = sorted(set(self.components) | set(other.components))
        for name in names:
            a = self.components.get(name)
            b = other.components.get(name)
            if _canonical(a) != _canonical(b):
                out.append(
                    f"{name}: {_digest(a)[:12]} != {_digest(b)[:12]}"
                )
        return out

    # -- JSON round-trip ------------------------------------------------- #

    def to_dict(self) -> Dict:
        return {
            "t": self.t,
            "seed": self.seed,
            "label": self.label,
            "version": self.version,
            "components": self.components,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "MachineState":
        return cls(
            t=d["t"],
            seed=d["seed"],
            label=d.get("label", ""),
            version=d.get("version", SNAPSHOT_VERSION),
            components=d.get("components", {}),
        )

    def save(self, path: str) -> None:
        """Write the checkpoint as JSON (atomic: temp + rename)."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "MachineState":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# --------------------------------------------------------------------- #
# capture
# --------------------------------------------------------------------- #


def capture(machine: "Machine", label: str = "") -> MachineState:
    """Snapshot ``machine`` right now.  Pure observation: no events are
    added, no RNG stream is advanced, no subsystem state is written."""
    sim = machine.sim
    components: Dict[str, Any] = {
        "sim": sim.snapshot_state(),
        "rng": machine.streams.snapshot_state(),
        "cores": [
            {
                "index": core.index,
                "busy_ns": core.total_busy_ns(),
                "irq_ns": core.irq_ns,
                "switch_ns": core.switch_ns,
                "exit_stall_ns": core.exit_stall_ns,
                "freq_hz": core.freq,
            }
            for core in machine.cores
        ],
        "threads": [
            {
                "name": t.name,
                "state": t.state.value,
                "vruntime": t.vruntime,
                "cputime_ns": t.cputime_ns,
                "wakeups": t.wakeups,
                "preemptions": t.preemptions,
                "dispatch_latency_ns": t.dispatch_latency_ns,
            }
            for t in machine.threads
        ],
        "hrtimers": [q.snapshot_state() for q in machine.hrtimers],
        "nic": {
            "queues": [q.snapshot_state() for q in sim.rx_queues],
            "ports": [p.snapshot_state() for p in sim.nic_ports],
        },
        "faults": (machine.faults.snapshot_state()
                   if machine.faults is not None else None),
        # the registry may hold thousands of primitives; a digest keeps
        # the checkpoint small while still pinning every value
        "metrics": {
            "count": len(machine.metrics),
            "digest": _digest(machine.metrics.snapshot()),
        },
        # peek, never read: read_joules() closes the meter's open
        # intervals, which regroups its float accumulation and breaks
        # byte-identical continuation after the snapshot
        "power": {"energy_j": machine.power.peek_joules()},
    }
    return MachineState(
        t=sim.now, seed=machine.cfg.seed, label=label, components=components
    )


def verify(machine: "Machine", state: MachineState) -> List[str]:
    """Mismatches between ``machine``'s current state and ``state``."""
    return state.diff(capture(machine, label=state.label))


def restore(machine: "Machine", state: MachineState,
            strict: bool = True) -> List[str]:
    """Replay a freshly built ``machine`` to ``state`` and verify it.

    ``machine`` must be wired with the same workload recipe (config,
    seed, scenario) that produced the snapshot, and must not have run
    past ``state.t`` yet.  The sim is advanced to ``state.t``, the RNG
    streams are pinned to the captured generator states, and every
    component is checked against the capture.  Returns the mismatch
    list (empty on success); with ``strict`` a non-empty list raises
    :exc:`SnapshotMismatch` instead.
    """
    if machine.sim.now > state.t:
        raise SnapshotMismatch(
            [f"machine already at t={machine.sim.now} > snapshot "
             f"t={state.t}: restore needs a freshly built machine"]
        )
    machine.run(until=state.t)
    mismatches = verify(machine, state)
    if mismatches and strict:
        raise SnapshotMismatch(mismatches)
    if not mismatches:
        # pin the streams to the captured generator states; a no-op
        # after a verified replay, but it makes the restored machine's
        # RNG provably exact rather than inferred
        machine.streams.restore_state(state.components["rng"])
    return mismatches
