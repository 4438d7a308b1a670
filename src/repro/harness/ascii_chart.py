"""Terminal time-series rendering: sparklines and resampling.

The adaptation experiment (§5.3) is inherently a time-series figure;
these helpers let the CLI and examples show its shape without any
plotting dependency.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """One-line sparkline of ``values`` (8 vertical levels)."""
    if not values:
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    span = hi - lo
    if span <= 0:
        return _SPARK_LEVELS[0] * len(values)
    out = []
    top = len(_SPARK_LEVELS) - 1
    for v in values:
        idx = int((v - lo) / span * top + 0.5)
        out.append(_SPARK_LEVELS[min(top, max(0, idx))])
    return "".join(out)


def resample(values: Sequence[float], n: int) -> List[float]:
    """Nearest-neighbour resample to exactly ``n`` points."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not values:
        return []
    if len(values) == 1:
        return [values[0]] * n
    return [
        values[int(i * (len(values) - 1) / max(1, n - 1))]
        for i in range(n)
    ]
