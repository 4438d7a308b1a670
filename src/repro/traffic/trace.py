"""The compact, versioned packet-trace format.

A trace is the unit of exchange for trace-driven replay (ROADMAP item
3): a header describing named temporal *phases* plus one record per
packet — ``(t_ns, len, flow)`` — with nanosecond arrival offsets
relative to the trace start.  In memory the records are three
read-only ``int64`` columns (``times``, ``lens``, ``flows``) that the
replay and the RSS shards share by reference.  The on-disk form is
JSONL: a single header object followed by one compact
``[t_ns, len, flow]`` array per record, optionally gzip-compressed (any
path ending in ``.gz``).

Design contract:

* **versioned** — the header carries ``format``/``version``; loaders
  reject anything they do not understand rather than guessing (a
  record field, header ``count`` or phase bound that is not a JSON
  integer, or a phase name that is not a string, too);
* **deterministic identity** — :meth:`Trace.sha256` hashes the
  canonical serialization, so generators can be audited as pure
  functions of (spec, seed) and caches can key on content;
* **validated** — :meth:`Trace.validate` enforces monotonic arrival
  times, sane frame lengths, and ordered, non-overlapping phases, so
  every consumer (replay, figures, CLI) can assume a well-formed trace.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nic.topology import frozen_column
from repro.sim.units import SEC

#: on-disk format name; loaders reject anything else
TRACE_FORMAT = "repro-trace"
#: bump when the header or record layout changes
TRACE_VERSION = 1
#: largest acceptable frame (jumbo); guards against corrupt records
MAX_FRAME_LEN = 9216

#: one packet record: (arrival offset ns, frame length, flow id)
Record = Tuple[int, int, int]

#: the range a record field must fit: the columns are ``int64``
_INT64 = range(-(1 << 63), 1 << 63)


class TraceError(ValueError):
    """A trace failed schema validation or could not be parsed."""


@dataclass(frozen=True)
class Phase:
    """One named temporal phase: ``[start_ns, end_ns)`` within the trace."""

    name: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_dict(self) -> Dict:
        return {"name": self.name, "start_ns": self.start_ns,
                "end_ns": self.end_ns}

    @classmethod
    def from_dict(cls, d: Dict) -> "Phase":
        """A phase from its header form, exactly as written: a string
        name and 64-bit JSON integer bounds (``bool`` excluded), the
        rule record fields follow, so a loaded trace hashes like its
        file."""
        if not isinstance(d, dict):
            raise TraceError(f"phase {d!r} is not a JSON object")
        name = d.get("name")
        if type(name) is not str:
            raise TraceError(f"phase name {name!r} is not a string")
        for key in ("start_ns", "end_ns"):
            v = d.get(key)
            if type(v) is not int or v not in _INT64:
                raise TraceError(f"phase {key} {v!r} is not a 64-bit JSON "
                                 "integer")
        return cls(name=name, start_ns=d["start_ns"], end_ns=d["end_ns"])


class Trace:
    """An ordered packet trace with named phases and JSON metadata.

    ``records`` (tuples) fills the ``times``/``lens``/``flows`` columns;
    :meth:`from_columns` adopts ready columns without a per-record pass.
    """

    def __init__(
        self,
        phases: Sequence[Phase] = (),
        records: Sequence[Record] = (),
        meta: Optional[Dict] = None,
    ):
        self.phases: List[Phase] = list(phases)
        self.meta: Dict = dict(meta or {})
        rows = np.array(records, dtype=np.int64).reshape(len(records), 3)
        self.times, self.lens, self.flows = map(frozen_column, rows.T)

    @classmethod
    def from_columns(cls, times, lens, flows, phases: Sequence[Phase] = (),
                     meta: Optional[Dict] = None) -> "Trace":
        """A trace over ready ``times``/``lens``/``flows`` columns.

        An ``int64`` array or buffer (e.g. ``array('q')``) is adopted
        as the column, not copied; its owner must not write to it.
        """
        trace = cls(phases=phases, meta=meta)
        trace.times, trace.lens, trace.flows = map(frozen_column,
                                                   (times, lens, flows))
        return trace

    # -- derived ---------------------------------------------------------- #

    @property
    def records(self) -> List[Record]:
        """The records as ``(t_ns, len, flow)`` tuples (a fresh list)."""
        return list(self._rows())

    def _rows(self):
        return zip(self.times.tolist(), self.lens.tolist(),
                   self.flows.tolist())

    @property
    def packet_count(self) -> int:
        return len(self.times)

    @property
    def byte_count(self) -> int:
        return int(self.lens.sum())

    @property
    def duration_ns(self) -> int:
        """Trace length: the later of the last record and last phase end."""
        last_rec = int(self.times[-1]) if len(self.times) else 0
        last_phase = self.phases[-1].end_ns if self.phases else 0
        return max(last_rec, last_phase)

    def mean_rate_pps(self) -> float:
        dur = self.duration_ns
        if dur <= 0:
            return 0.0
        return len(self.times) * SEC / dur

    def phase_slices(self) -> List[Tuple[Phase, int, int]]:
        """Each phase with its ``[first, last)`` record index range.

        Records exactly at a phase's ``end_ns`` belong to the next
        phase; the final phase's end is inclusive (it is the trace end).
        """
        out: List[Tuple[Phase, int, int]] = []
        for i, phase in enumerate(self.phases):
            lo = int(np.searchsorted(self.times, phase.start_ns, "left"))
            if i == len(self.phases) - 1:
                hi = len(self.times)
            else:
                hi = int(np.searchsorted(self.times, phase.end_ns, "left"))
            out.append((phase, lo, hi))
        return out

    # -- validation ------------------------------------------------------- #

    def validate(self) -> None:
        """Raise :exc:`TraceError` unless the trace is well-formed.

        The record checks run over whole columns; the first offending
        record is then re-checked alone for its message.
        """
        times, lens, flows = self.times, self.lens, self.flows
        prev = np.concatenate(([0], times[:-1]))
        bad = ((times < prev) | (times < 0) | (lens < 1)
               | (lens > MAX_FRAME_LEN) | (flows < 0))
        if bad.any():
            i = int(bad.argmax())
            t, length, flow, prev_t = (int(times[i]), int(lens[i]),
                                       int(flows[i]), int(prev[i]))
            if t < 0:
                raise TraceError(f"record {i}: negative arrival time {t}")
            if t < prev_t:
                raise TraceError(
                    f"record {i}: arrival time {t} before previous {prev_t}"
                )
            if not 1 <= length <= MAX_FRAME_LEN:
                raise TraceError(f"record {i}: frame length {length} "
                                 f"outside [1, {MAX_FRAME_LEN}]")
            raise TraceError(f"record {i}: negative flow id {flow}")
        prev_end = 0
        for i, phase in enumerate(self.phases):
            if not phase.name:
                raise TraceError(f"phase {i}: empty name")
            if phase.end_ns <= phase.start_ns:
                raise TraceError(
                    f"phase {phase.name!r}: end {phase.end_ns} <= "
                    f"start {phase.start_ns}"
                )
            if phase.start_ns < prev_end:
                raise TraceError(
                    f"phase {phase.name!r}: starts at {phase.start_ns}, "
                    f"overlapping the previous phase (ends {prev_end})"
                )
            prev_end = phase.end_ns
        if self.phases and len(times):
            if times[-1] > self.phases[-1].end_ns:
                raise TraceError(
                    f"last record at {int(times[-1])} lies past the "
                    f"final phase end {self.phases[-1].end_ns}"
                )

    # -- identity --------------------------------------------------------- #

    def sha256(self) -> str:
        """Content digest of the canonical serialization.

        Computed on each call: it serializes the whole trace.
        """
        return hashlib.sha256(self.dumps().encode()).hexdigest()

    # -- serialization ---------------------------------------------------- #

    def _header(self) -> Dict:
        return {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "count": len(self.times),
            "duration_ns": self.duration_ns,
            "phases": [p.to_dict() for p in self.phases],
            "meta": self.meta,
        }

    def dumps(self) -> str:
        """Canonical JSONL text: header line, then one record per line."""
        out = io.StringIO()
        json.dump(self._header(), out, sort_keys=True,
                  separators=(",", ":"))
        out.write("\n")
        for t, length, flow in self._rows():
            out.write(f"[{t},{length},{flow}]\n")
        return out.getvalue()

    @classmethod
    def loads(cls, text: str) -> "Trace":
        lines = text.splitlines()
        if not lines:
            raise TraceError("empty trace file")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise TraceError(f"unparseable trace header: {exc}") from exc
        if not isinstance(header, dict):
            raise TraceError("trace header is not a JSON object")
        fmt = header.get("format")
        if fmt != TRACE_FORMAT:
            raise TraceError(f"not a {TRACE_FORMAT} file (format={fmt!r})")
        version = header.get("version")
        if version != TRACE_VERSION:
            raise TraceError(
                f"unsupported trace version {version!r} "
                f"(this build reads version {TRACE_VERSION})"
            )
        count = header.get("count")
        if count is not None and type(count) is not int:
            raise TraceError(f"line 1: header count {count!r} is not an "
                             "integer")
        records: List[List[int]] = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"line {lineno}: bad record: {exc}") from exc
            if not (isinstance(rec, list) and len(rec) == 3):
                raise TraceError(f"line {lineno}: record is not [t,len,flow]")
            # exact type: bool is an int subclass, and int() would
            # silently truncate floats and parse strings
            for v in rec:
                if type(v) is not int or v not in _INT64:
                    raise TraceError(f"line {lineno}: record field {v!r} is "
                                     "not a 64-bit JSON integer")
            records.append(rec)
        if count is not None and count != len(records):
            raise TraceError(
                f"header count {count} != {len(records)} records (truncated?)"
            )
        phases = []
        for i, p in enumerate(header.get("phases", [])):
            try:
                phases.append(Phase.from_dict(p))
            except TraceError as exc:
                raise TraceError(f"line 1: phase {i}: {exc}") from None
        trace = cls(
            phases=phases,
            records=records,
            meta=header.get("meta", {}),
        )
        trace.validate()
        return trace

    def dump(self, path: str) -> None:
        """Write the trace to ``path`` (gzip when it ends in ``.gz``)."""
        data = self.dumps().encode()
        if path.endswith(".gz"):
            # mtime=0 and an empty embedded filename keep the gzip
            # bytes a pure function of the trace content
            with open(path, "wb") as fh:
                with gzip.GzipFile(filename="", mode="wb", fileobj=fh,
                                   mtime=0) as gz:
                    gz.write(data)
        else:
            with open(path, "wb") as fh:
                fh.write(data)

    @classmethod
    def load(cls, path: str) -> "Trace":
        if path.endswith(".gz"):
            with gzip.open(path, "rb") as fh:
                data = fh.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        return cls.loads(data.decode())

    # -- reporting -------------------------------------------------------- #

    def describe(self) -> str:
        """Human-readable summary (the ``repro traffic describe`` body)."""
        lines = [
            f"format: {TRACE_FORMAT} v{TRACE_VERSION}",
            f"packets: {len(self.times):,}  "
            f"bytes: {self.byte_count:,}  "
            f"duration: {self.duration_ns / 1e6:.3f} ms  "
            f"mean rate: {self.mean_rate_pps() / 1e6:.3f} Mpps",
            f"sha256: {self.sha256()}",
        ]
        if self.meta:
            meta = json.dumps(self.meta, sort_keys=True)
            lines.append(f"meta: {meta}")
        if self.phases:
            lines.append("phases:")
            for phase, lo, hi in self.phase_slices():
                n = hi - lo
                dur = phase.duration_ns
                rate = n * SEC / dur / 1e6 if dur else 0.0
                lines.append(
                    f"  {phase.name:<16} "
                    f"[{phase.start_ns / 1e6:9.3f}, {phase.end_ns / 1e6:9.3f}) ms  "
                    f"{n:>9,} pkts  {rate:7.3f} Mpps"
                )
        return "\n".join(lines)
