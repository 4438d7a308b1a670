"""Load estimation and timeout adaptation (paper §4.3).

:class:`AdaptiveTuner` implements the paper's controller:

* after every renewal cycle, update the load estimate with the EWMA of
  eq. (10):   ρ(i) = (1−α)·ρ(i−1) + α·B(i)/(V(i)+B(i));
* derive the short timeout from eq. (12):
  T_S = M·(1−ρ)/(1−ρ^M)·V̄, so the *achieved* mean vacation stays pinned
  at the target V̄ across the whole load range.

:class:`FixedTuner` serves the parameter-sweep experiments that study a
constant T_S (Figures 5, 7, 8).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.cycles import CycleRecord
from repro.core.model import rho_from_periods, ts_for_target_vacation

#: overload lifts once ρ falls back to this, well below the entry level
OVERLOAD_EXIT = 0.85
#: consecutive cycles at or above the entry level before overload
OVERLOAD_HOLD_CYCLES = 8
#: floor of the overload T_S, which is otherwise V̄/4
OVERLOAD_TS_FLOOR_NS = 1_000


class TunerBase:
    """Interface shared by adaptive and fixed timeout policies."""

    def observe(self, record: CycleRecord) -> None:
        """Feed one completed renewal cycle."""

    def ts_ns(self) -> int:
        """Current short (primary) timeout."""
        raise NotImplementedError

    def tl_ns(self) -> int:
        """Current long (backup) timeout."""
        raise NotImplementedError

    @property
    def rho(self) -> float:
        """Current load estimate (0 when the policy does not estimate)."""
        return 0.0


class FixedTuner(TunerBase):
    """Constant T_S/T_L, no adaptation."""

    def __init__(self, ts_ns: int, tl_ns: int):
        if ts_ns <= 0 or tl_ns <= 0:
            raise ValueError("timeouts must be positive")
        self._ts = ts_ns
        self._tl = tl_ns

    def ts_ns(self) -> int:
        return self._ts

    def tl_ns(self) -> int:
        return self._tl


class AdaptiveTuner(TunerBase):
    """The paper's EWMA + eq. 12 controller targeting a constant V̄.

    **Overload mode** (opt-in, for the graceful-degradation path): when
    the load estimate stays at or above ``overload_enter`` for
    :data:`OVERLOAD_HOLD_CYCLES` consecutive cycles — the controller's
    equilibrium is gone, e.g. under an IRQ storm or an antagonist
    stealing the cores — T_S collapses to ``overload_ts_ns`` (V̄/4, at
    least :data:`OVERLOAD_TS_FLOOR_NS`) so wakeups come as fast as the
    sleep service allows and the backlog drains.  Recovery is
    hysteretic: overload only lifts once ρ falls back to
    :data:`OVERLOAD_EXIT`, well below the entry threshold, so the tuner
    cannot flap at the boundary.  ``overload_enter=None`` (the default)
    disables the mode entirely and the controller is byte-identical to
    the pre-faults behaviour.
    """

    def __init__(
        self,
        vbar_ns: int,
        tl_ns: int,
        m: int,
        alpha: float = 0.125,
        initial_rho: float = 0.0,
        record_history: bool = False,
        overload_enter: Optional[float] = None,
    ):
        if vbar_ns <= 0 or tl_ns <= 0:
            raise ValueError("timeouts must be positive")
        if m < 1:
            raise ValueError("M must be >= 1")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if overload_enter is not None and not (
                OVERLOAD_EXIT < overload_enter <= 1.0):
            raise ValueError(
                f"overload_enter must be in ({OVERLOAD_EXIT}, 1] "
                "(above the exit level: hysteresis)"
            )
        self.vbar_ns = vbar_ns
        self._tl = tl_ns
        self.m = m
        self.alpha = alpha
        self._rho = min(max(initial_rho, 0.0), 1.0)
        self.cycles_observed = 0
        self.history: Optional[List[Tuple[int, float, int]]] = (
            [] if record_history else None
        )
        self.overload_enter = overload_enter
        self.overload_ts_ns = max(OVERLOAD_TS_FLOOR_NS, vbar_ns // 4)
        self.in_overload = False
        self.overload_entries = 0
        self._consec_high = 0

    @property
    def rho(self) -> float:
        return self._rho

    def observe(self, record: CycleRecord) -> None:
        sample = rho_from_periods(record.busy_ns, record.vacation_ns)
        self._rho = (1.0 - self.alpha) * self._rho + self.alpha * sample
        self.cycles_observed += 1
        if self.overload_enter is not None:
            self._update_overload()
        if self.history is not None:
            self.history.append((record.start_ns, self._rho, self.ts_ns()))

    def _update_overload(self) -> None:
        if not self.in_overload:
            if self._rho >= self.overload_enter:
                self._consec_high += 1
                if self._consec_high >= OVERLOAD_HOLD_CYCLES:
                    self.in_overload = True
                    self.overload_entries += 1
            else:
                self._consec_high = 0
        elif self._rho <= OVERLOAD_EXIT:
            self.in_overload = False
            self._consec_high = 0

    def ts_ns(self) -> int:
        if self.in_overload:
            return min(self.overload_ts_ns, self._tl)
        ts = ts_for_target_vacation(self.vbar_ns, self.m, self._rho)
        # never sleep longer than the backup timeout
        return min(int(ts), self._tl)

    def tl_ns(self) -> int:
        return self._tl
