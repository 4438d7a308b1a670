"""Declarative sweep specifications for the campaign engine.

A campaign decomposes each figure's parameter sweep into independent
:class:`TaskSpec` units — one grid point each — that can run in any
order, in any process, and be cached individually.  Every scenario in
:mod:`repro.harness.scenarios` already builds a fresh
:class:`~repro.kernel.machine.Machine` per grid point, so splitting the
sweep loop across workers yields records identical to the serial run.

The layer mirrors :class:`repro.faults.plan.FaultPlan`: specs are plain
data with ``to_dict``/``from_dict`` JSON round-trip, so campaigns can be
shipped as files, diffed, and hashed for the result cache.

``FigureSpec`` is the registry side (see :mod:`repro.campaign.registry`)
— it holds the grid *and* the rendering recipe (title, headers, a row
post-processor that may splice in paper values), so the campaign's
tables are byte-identical to the benchmark scripts'.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro import config
from repro.harness.report import render_table
from repro.harness.scaling import scaled


def json_normalize(value: Any) -> Any:
    """Round-trip ``value`` through JSON (tuples become lists, ...).

    Every task record crosses this boundary — whether it was produced
    in-process, in a worker subprocess, or read back from the cache —
    so all three paths render identically down to the byte.
    """
    return json.loads(json.dumps(value))


@dataclass(frozen=True)
class TaskSpec:
    """One unit of campaign work: a scenario call at one grid point.

    ``index`` is the task's position in its figure's serial iteration
    order; the merge step concatenates records by index so parallel
    output equals the serial sweep.
    """

    figure: str
    scenario: str
    params: Mapping[str, Any]
    seed: int = config.DEFAULT_SEED
    index: int = 0

    def __post_init__(self):
        if not self.figure or not self.scenario:
            raise ValueError("task needs a figure and a scenario name")
        if self.index < 0:
            raise ValueError("index must be >= 0")
        object.__setattr__(self, "params", json_normalize(dict(self.params)))

    # -- JSON round-trip ------------------------------------------------- #

    def to_dict(self) -> Dict:
        return {
            "figure": self.figure,
            "scenario": self.scenario,
            "params": json_normalize(dict(self.params)),
            "seed": self.seed,
            "index": self.index,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "TaskSpec":
        return cls(**d)

    def canonical(self) -> str:
        """Deterministic JSON identity (excludes ``index``: reordering a
        grid must not invalidate cached results)."""
        return json.dumps(
            {
                "figure": self.figure,
                "scenario": self.scenario,
                "params": json_normalize(dict(self.params)),
                "seed": self.seed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @property
    def key(self) -> Tuple[str, int]:
        return (self.figure, self.index)

    def label(self) -> str:
        return f"{self.figure}[{self.index}]"


@dataclass(frozen=True)
class FigureSpec:
    """A figure's sweep grid plus its table-rendering recipe.

    ``axes`` names the scenario keyword(s) being sharded, outermost
    loop first; ``grid`` gives the value tuple for each axis.  Tasks
    are the cross product in nested-loop order, each calling the
    scenario with one-element tuples for the sharded axes, so the
    concatenated records equal one serial call over the full grid.

    ``duration_param`` / ``duration_base`` / ``duration_floor`` feed
    the shared ``--fast`` clamp (:func:`repro.harness.scaling.scaled`).
    ``row_fn`` maps the merged record to the rows actually rendered
    (e.g. splicing in paper columns); ``None`` renders records as-is.
    """

    name: str
    scenario: str
    title: str
    headers: Tuple[str, ...]
    axes: Tuple[str, ...]
    grid: Tuple[Tuple, ...]
    base_params: Mapping[str, Any] = field(default_factory=dict)
    duration_param: str = "duration_ms"
    duration_base: int = 80
    duration_floor: int = 20
    row_fn: Optional[Callable[[List], List]] = None
    note: Optional[str] = None

    def __post_init__(self):
        if len(self.axes) != len(self.grid):
            raise ValueError("axes and grid must align")
        if not self.axes:
            raise ValueError("need at least one sharded axis")

    def task_count(self) -> int:
        n = 1
        for values in self.grid:
            n *= len(values)
        return n

    def tasks(self, scale: float = 1.0,
              seed: int = config.DEFAULT_SEED) -> List[TaskSpec]:
        """The figure's grid as independent tasks, serial order."""
        out: List[TaskSpec] = []
        for index, combo in enumerate(itertools.product(*self.grid)):
            params = dict(self.base_params)
            for axis, value in zip(self.axes, combo):
                params[axis] = (value,)
            params[self.duration_param] = scaled(
                self.duration_base, scale, self.duration_floor)
            out.append(
                TaskSpec(figure=self.name, scenario=self.scenario,
                         params=params, seed=seed, index=index)
            )
        return out

    def render(self, record: List) -> str:
        """Render a merged record as the figure's benchmark table."""
        rows = self.row_fn(record) if self.row_fn is not None else record
        return render_table(self.title, list(self.headers), rows,
                            note=self.note)
