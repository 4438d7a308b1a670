"""Traffic generators (the MoonGen stand-in).

Arrival processes are *monotonic lazy counters*: the Rx queue calls
``advance(t1)`` whenever it touches the ring, receiving the number of
packets that arrived since the previous touch, in O(1) — this is what
makes 14.88 Mpps simulable (DESIGN.md §4, "lazy arrival counting").

``next_arrival_after(t)`` supports the empty-poll fast-forward and the
XDP interrupt model, which need to know when the wire next becomes
non-idle.

Implementations:

* :class:`CbrProcess` — constant bit rate, exact integer arithmetic
  (the paper's throughput/latency tests);
* :class:`PoissonProcess` — memoryless arrivals for model validation;
* :class:`RampProfile` — piecewise-CBR, e.g. the 60 s up/down ramp of
  §5.3's rate-control-methods.lua experiment, or a step burst for the
  XDP reactivity test.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import inf
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.units import SEC


def gbps_to_pps(gbps: float, frame_len: int = 64) -> int:
    """Packets/s on an Ethernet wire at ``gbps`` with ``frame_len`` frames.

    Accounts for the 20B per-frame overhead (preamble + IPG), so
    ``gbps_to_pps(10, 64)`` = 14,880,952 — the paper's line rate.
    """
    return int(gbps * 1e9 / ((frame_len + 20) * 8))


def mpps(million: float) -> int:
    """Convenience: mega-packets-per-second to pps."""
    return int(million * 1e6)


#: the link speeds production NICs actually ship (ROADMAP item 2)
STANDARD_LINK_RATES_GBPS = (10, 25, 40, 100)


def serialization_ns(frame_len: int, gbps: float) -> float:
    """Wire serialization time of one frame, in nanoseconds.

    The :func:`gbps_to_pps` companion: counts the same 20B preamble+IPG
    overhead, so ``SEC / serialization_ns`` equals the pps of a
    saturated wire.  ``serialization_ns(1518, 10)`` ≈ 1230.4 ns — the
    ~1.23 µs/frame figure of the 10G link-rate table — and 100G cuts it
    to ~123 ns.
    """
    if frame_len <= 0:
        raise ValueError("frame_len must be positive")
    if gbps <= 0:
        raise ValueError("gbps must be positive")
    return (frame_len + 20) * 8 / gbps


def link_rate_table(frame_len: int = 64) -> List[Tuple[float, int, float]]:
    """``(gbps, line-rate pps, serialization ns)`` for the standard rates."""
    return [
        (float(gbps), gbps_to_pps(gbps, frame_len),
         serialization_ns(frame_len, gbps))
        for gbps in STANDARD_LINK_RATES_GBPS
    ]


class ArrivalProcess:
    """Interface: a monotonic counting process of packet arrivals."""

    #: total arrivals delivered through advance() so far
    total = 0
    #: the time up to which arrivals have been counted
    last_t = 0

    def advance(self, t1: int) -> int:
        """Arrivals in ``(last_t, t1]``.  ``t1`` must be >= ``last_t``."""
        raise NotImplementedError

    def next_arrival_after(self, t: int) -> Optional[int]:
        """Earliest arrival strictly after ``t`` (>= ``last_t``), if any."""
        raise NotImplementedError

    def rate_at(self, t: int) -> float:
        """Nominal rate (pps) at time ``t`` (reporting only)."""
        raise NotImplementedError

    def time_for_count(self, t: int, k: int) -> Optional[int]:
        """Approximate time ≥ t by which ~k more arrivals will exist.

        Used only for *pacing* (the poll-mode driver's event batching),
        never for statistics, so the generic rate-based estimate is
        acceptable; subclasses may provide exact versions.
        """
        if k <= 0:
            return t
        rate = self.rate_at(t)
        if rate <= 0:
            return self.next_arrival_after(t)
        return t + int(k * SEC / rate) + 1

    def flow_of(self, seq: int) -> Optional[int]:
        """Flow id of arrival ``seq``, when the source dictates one.

        ``None`` (the default) lets the Rx queue fall back to its
        :class:`~repro.nic.flows.FlowSet` hash; trace replay overrides
        this so tagged packets carry the trace's own flow keys.
        """
        return None


class CbrProcess(ArrivalProcess):
    """Constant-rate arrivals: packet k arrives at ``ceil(k/rate)``."""

    def __init__(self, rate_pps: int):
        if rate_pps < 0:
            raise ValueError("negative rate")
        self.rate_pps = rate_pps
        self.last_t = 0
        self.total = 0

    def _count_at(self, t: int) -> int:
        return t * self.rate_pps // SEC

    def advance(self, t1: int) -> int:
        if t1 < self.last_t:
            raise ValueError(f"advance moving backwards: {t1} < {self.last_t}")
        n = self._count_at(t1) - self.total
        self.total += n
        self.last_t = t1
        return n

    def next_arrival_after(self, t: int) -> Optional[int]:
        if self.rate_pps == 0:
            return None
        k = self._count_at(t) + 1
        return (k * SEC + self.rate_pps - 1) // self.rate_pps

    def rate_at(self, t: int) -> float:
        return float(self.rate_pps)

    def time_for_count(self, t: int, k: int) -> Optional[int]:
        """Exact: time at which the (count_at(t)+k)-th arrival lands."""
        if k <= 0:
            return t
        if self.rate_pps == 0:
            return None
        target = self._count_at(t) + k
        return (target * SEC + self.rate_pps - 1) // self.rate_pps


class PoissonProcess(ArrivalProcess):
    """Memoryless arrivals at mean rate ``rate_pps``.

    ``next_arrival_after`` samples and *commits* the next arrival time so
    that a later ``advance`` past it stays consistent with what the
    caller was told.
    """

    def __init__(self, rate_pps: int, rng: np.random.Generator, start: int = 0):
        if rate_pps < 0:
            raise ValueError("negative rate")
        self.rate_pps = rate_pps
        self._rng = rng
        self.last_t = start
        self.total = 0
        self._committed_next: Optional[int] = None

    def _poisson(self, dt: int) -> int:
        if dt <= 0 or self.rate_pps == 0:
            return 0
        return int(self._rng.poisson(dt * self.rate_pps / SEC))

    def advance(self, t1: int) -> int:
        if t1 < self.last_t:
            raise ValueError(f"advance moving backwards: {t1} < {self.last_t}")
        n = 0
        if self._committed_next is not None and self._committed_next <= t1:
            n = 1 + self._poisson(t1 - self._committed_next)
            self._committed_next = None
        elif self._committed_next is None:
            n = self._poisson(t1 - self.last_t)
        # else: committed arrival still in the future — nothing yet
        self.total += n
        self.last_t = t1
        return n

    def next_arrival_after(self, t: int) -> Optional[int]:
        if self.rate_pps == 0:
            return None
        if self._committed_next is not None and self._committed_next > t:
            return self._committed_next
        gap = self._rng.exponential(SEC / self.rate_pps)
        self._committed_next = t + max(1, int(gap))
        return self._committed_next

    def rate_at(self, t: int) -> float:
        return float(self.rate_pps)


class RampProfile(ArrivalProcess):
    """Piecewise-constant rate: ``segments = [(start_ns, rate_pps), ...]``.

    Exact integer fluid accumulator: the fractional packet position is
    carried in units of pps·ns so segment boundaries never drop or
    duplicate arrivals.  The last segment lasts forever, unless a
    subclass draws more as the run reaches them (:meth:`_extend_to`).
    """

    def __init__(self, segments: Sequence[Tuple[int, int]]):
        if not segments:
            raise ValueError("empty profile")
        starts = [s for s, _r in segments]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError("segment starts must be strictly increasing")
        self.segments: List[Tuple[int, int]] = list(segments)
        self.last_t = segments[0][0]
        self.total = 0
        self._acc = 0  # pps·ns accumulated

    # -- helpers --------------------------------------------------------- #

    def _extend_to(self, t: int) -> None:
        """Commit segments until the last one starts after ``t``; a
        fixed profile has nothing to commit."""

    def _after(self, t: int) -> int:
        """Index of the first segment starting strictly after ``t``."""
        return bisect_right(self.segments, (t, inf))

    def _next_start(self, t: int) -> Optional[int]:
        """First segment start strictly after ``t`` (None: none left)."""
        i = self._after(t)
        return self.segments[i][0] if i < len(self.segments) else None

    def _segment_rate(self, t: int) -> int:
        i = self._after(t)
        return self.segments[i - 1][1] if i else 0

    def _iter_pieces(self, t0: int, t1: int):
        """Yield (piece_start, piece_end, rate) covering (t0, t1]."""
        segments = self.segments
        i = self._after(t0)
        rate = segments[i - 1][1] if i else 0
        for start, next_rate in segments[i:bisect_left(segments, (t1,))]:
            yield t0, start, rate
            t0, rate = start, next_rate
        yield t0, t1, rate

    # -- ArrivalProcess -------------------------------------------------- #

    def advance(self, t1: int) -> int:
        if t1 < self.last_t:
            raise ValueError(f"advance moving backwards: {t1} < {self.last_t}")
        self._extend_to(t1)
        for a, b, rate in self._iter_pieces(self.last_t, t1):
            self._acc += (b - a) * rate
        new_total = self._acc // SEC
        n = new_total - self.total
        self.total = new_total
        self.last_t = t1
        return n

    def next_arrival_after(self, t: int) -> Optional[int]:
        if t < self.last_t:
            raise ValueError("next_arrival_after before sync point")
        self._extend_to(t)
        # accumulate virtually from last_t to t, then walk forward
        acc = self._acc
        for a, b, rate in self._iter_pieces(self.last_t, t):
            acc += (b - a) * rate
        needed = (acc // SEC + 1) * SEC
        cursor = t
        # walk segments until the accumulator can reach `needed`
        for _ in range(100_000):  # guard against pathological parameters
            rate = self._segment_rate(cursor)
            seg_end = self._next_start(cursor)
            if rate > 0:
                when = cursor + (needed - acc + rate - 1) // rate
                if seg_end is None or when <= seg_end:
                    return when
                acc += (seg_end - cursor) * rate
            elif seg_end is None:
                return None
            cursor = seg_end
        raise RuntimeError("no arrival found within the search horizon")

    def rate_at(self, t: int) -> float:
        self._extend_to(t)
        return float(self._segment_rate(t))


class OnOffProcess(RampProfile):
    """Bursty traffic: exponential ON/OFF phases, CBR while ON.

    The classic interrupted-Poisson-style burst model: ON periods of
    mean ``mean_on_ns`` at ``burst_rate_pps``, silent OFF periods of
    mean ``mean_off_ns``.  Used by the burst-reactivity extension
    (Metronome vs XDP on cold bursts) and for stressing the adaptive
    controller with load swings faster than the paper's 2 s ramp steps.

    A :class:`RampProfile` whose segments are the phases, drawn as the
    run reaches them and dropped once consumed.
    """

    def __init__(
        self,
        burst_rate_pps: int,
        mean_on_ns: int,
        mean_off_ns: int,
        rng: "random.Random",
        start: int = 0,
        start_on: bool = False,
    ):
        if burst_rate_pps < 0:
            raise ValueError("negative rate")
        if mean_on_ns <= 0 or mean_off_ns <= 0:
            raise ValueError("phase means must be positive")
        super().__init__([(start, burst_rate_pps if start_on else 0)])
        self.burst_rate_pps = burst_rate_pps
        self.mean_on_ns = mean_on_ns
        self.mean_off_ns = mean_off_ns
        self._rng = rng

    def mean_rate_pps(self) -> float:
        """Long-run average rate (duty cycle × burst rate)."""
        duty = self.mean_on_ns / (self.mean_on_ns + self.mean_off_ns)
        return self.burst_rate_pps * duty

    def next_arrival_after(self, t: int) -> Optional[int]:
        # at zero burst rate no phase carries a packet: answer None, as
        # CbrProcess(0) does, and draw no phase (the walk would draw
        # until its guard gives up); time_for_count likewise
        if not self.burst_rate_pps:
            return None
        return super().next_arrival_after(t)

    def time_for_count(self, t: int, k: int) -> Optional[int]:
        if not self.burst_rate_pps and k > 0:
            return None
        return super().time_for_count(t, k)

    def _extend_to(self, t: int) -> None:
        segments = self.segments
        while segments[-1][0] <= t:
            start, rate = segments[-1]
            if rate:
                gap = self._rng.expovariate(1.0 / self.mean_on_ns)
            else:
                gap = self._rng.expovariate(1.0 / self.mean_off_ns)
            segments.append((start + max(1, int(gap)),
                             0 if rate else self.burst_rate_pps))

    def _next_start(self, t: int) -> int:
        # at the newest phase, draw until one starts more than 1 ns past
        # it (the draws each query makes are pinned in the tests)
        while self.segments[-1][0] <= t:
            self._extend_to(self.segments[-1][0] + 1)
        return super()._next_start(t)

    def advance(self, t1: int) -> int:
        n = super().advance(t1)
        # trim consumed segments (keep the one covering last_t)
        del self.segments[:max(0, self._after(self.last_t) - 1)]
        return n


class FaultableProcess(ArrivalProcess):
    """A transparent wrapper that lets fault injectors perturb the wire.

    Two perturbations, both controlled by explicit edge calls (the
    injectors own the randomness; this class is deterministic):

    * **microburst overlay** — ``set_burst(rate_pps)`` superimposes a
      CBR stream on top of the inner process (0 switches it off);
    * **pause episode** — ``set_paused(True)`` models NIC flow-control /
      PCIe back-pressure: arrivals counted while paused are *held* and
      delivered in one slug when the pause lifts, which is exactly the
      post-pause burst real pause frames produce.

    ``checkpoint(now)`` must be called at every rate edge so the overlay
    accumulator integrates each segment at the rate actually in force.
    With no edges ever applied the wrapper is an identity: every count
    delegates to the inner process.
    """

    def __init__(self, inner: ArrivalProcess):
        self.inner = inner
        self.last_t = inner.last_t
        self.total = 0
        self._paused = False
        self._held = 0
        self._burst_rate = 0
        self._overlay_t = inner.last_t
        self._overlay_acc = 0      # pps·ns fractional accumulator
        self._overlay_total = 0
        #: episode statistics for chaos reports
        self.burst_packets = 0
        self.held_peak = 0

    # -- injector edge calls -------------------------------------------- #

    def checkpoint(self, now: int) -> None:
        """Integrate the overlay up to ``now`` at the current rate."""
        if now > self._overlay_t:
            self._overlay_acc += (now - self._overlay_t) * self._burst_rate
            self._overlay_t = now

    def set_burst(self, rate_pps: int) -> None:
        if rate_pps < 0:
            raise ValueError("negative burst rate")
        self._burst_rate = rate_pps

    def set_paused(self, paused: bool) -> None:
        self._paused = paused

    @property
    def paused(self) -> bool:
        return self._paused

    # -- ArrivalProcess -------------------------------------------------- #

    def advance(self, t1: int) -> int:
        if t1 < self.last_t:
            raise ValueError(f"advance moving backwards: {t1} < {self.last_t}")
        n = self.inner.advance(t1)
        self.checkpoint(t1)
        overlay_now = self._overlay_acc // SEC
        extra = overlay_now - self._overlay_total
        self._overlay_total = overlay_now
        self.burst_packets += extra
        n += extra
        if self._paused:
            self._held += n
            self.held_peak = max(self.held_peak, self._held)
            n = 0
        else:
            n += self._held
            self._held = 0
        self.total += n
        self.last_t = t1
        return n

    def next_arrival_after(self, t: int) -> Optional[int]:
        """Delegates to the inner process (overlay/pause ignored): the
        polling-driver fast-forward only needs a lower bound, and a
        pause can only move the first visible arrival later."""
        return self.inner.next_arrival_after(t)

    def rate_at(self, t: int) -> float:
        if self._paused:
            return 0.0
        return self.inner.rate_at(t) + float(self._burst_rate)

    def flow_of(self, seq: int) -> Optional[int]:
        """Delegates to the inner process.

        Overlay packets share the inner sequence space, so under an
        active burst the per-packet attribution is approximate — which
        matches reality: injected attack packets carry whatever flow
        keys the generator forged.
        """
        return self.inner.flow_of(seq)

    def snapshot_state(self) -> dict:
        """Wrapper counters + the inner process's own state (if any).

        Only defined state is captured: inner processes without a
        ``snapshot_state`` contribute their ``(total, last_t)`` sync
        point, which the queue already pins.
        """
        inner_extra = getattr(self.inner, "snapshot_state", None)
        return {
            "kind": "faultable",
            "total": self.total,
            "last_t": self.last_t,
            "paused": self._paused,
            "held": self._held,
            "burst_rate": self._burst_rate,
            "overlay_t": self._overlay_t,
            "overlay_acc": self._overlay_acc,
            "overlay_total": self._overlay_total,
            "burst_packets": self.burst_packets,
            "held_peak": self.held_peak,
            "inner": inner_extra() if inner_extra is not None else None,
        }


def triangle_ramp(
    duration_ns: int,
    peak_pps: int,
    steps: int = 15,
    floor_pps: int = 0,
) -> RampProfile:
    """The §5.3 MoonGen experiment: rate climbs in equal steps to the
    peak at mid-run, then descends symmetrically."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    half = duration_ns // 2
    step_ns = max(1, half // steps)
    segments: List[Tuple[int, int]] = []
    for i in range(steps):
        rate = floor_pps + (peak_pps - floor_pps) * (i + 1) // steps
        segments.append((i * step_ns, rate))
    for i in range(steps):
        rate = floor_pps + (peak_pps - floor_pps) * (steps - 1 - i) // steps
        segments.append((half + i * step_ns, rate))
    return RampProfile(segments)
