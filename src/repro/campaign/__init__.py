"""``repro.campaign`` — parallel sweep engine with result caching.

Turns the benchmark suite's serial per-figure loops into a sharded,
cached, observable experiment pipeline:

* **specs** (:mod:`~repro.campaign.spec`) — figures register their
  parameter grids as data; tasks round-trip through JSON;
* **executor** (:mod:`~repro.campaign.executor`) — process-pool
  sharding with per-task timeouts and fresh-worker retries; merged
  records are byte-identical to the serial sweep;
* **cache** (:mod:`~repro.campaign.cache`) — content-addressed result
  store keyed by spec + code fingerprint, and the campaign's only
  record of progress: a re-run resumes from it, and an unsharded run
  over it assembles a sharded campaign;
* **artifacts** (:mod:`~repro.campaign.artifacts`) — atomic ``.txt`` /
  ``.json`` tables and the ``BENCH_campaign.json`` roll-up.

The benchmark scripts are thin wrappers over :func:`run_figure` /
:func:`render_figure`; ``repro campaign`` is the operational CLI.
See ``docs/CAMPAIGN.md``.
"""

from __future__ import annotations

from typing import List, Optional

from repro import config
from repro.campaign.artifacts import (
    CAMPAIGN_SUMMARY,
    atomic_write_json,
    atomic_write_text,
    default_cache_dir,
    default_results_dir,
    figure_payload,
    read_campaign_summary,
    write_campaign_summary,
    write_figure_artifacts,
)
from repro.campaign.cache import (
    ResultCache,
    package_digest,
    scenario_fingerprint,
    task_key,
)
from repro.campaign.executor import (
    CampaignResult,
    InjectedFailure,
    TaskOutcome,
    campaign_specs,
    execute_task,
    run_campaign,
    run_tasks,
)
from repro.campaign.registry import FIGURES, get_figure
from repro.campaign.spec import FigureSpec, TaskSpec, json_normalize

__all__ = [
    "CAMPAIGN_SUMMARY",
    "CampaignResult",
    "FIGURES",
    "FigureSpec",
    "InjectedFailure",
    "ResultCache",
    "TaskOutcome",
    "TaskSpec",
    "atomic_write_json",
    "atomic_write_text",
    "campaign_specs",
    "default_cache_dir",
    "default_results_dir",
    "execute_task",
    "figure_payload",
    "get_figure",
    "json_normalize",
    "package_digest",
    "read_campaign_summary",
    "render_figure",
    "run_campaign",
    "run_figure",
    "run_tasks",
    "scenario_fingerprint",
    "task_key",
    "write_campaign_summary",
    "write_figure_artifacts",
]


def run_figure(name: str, scale: float = 1.0,
               seed: Optional[int] = None) -> List:
    """Run one figure's sweep serially in-process (no cache) and return
    the merged record — the benchmark scripts' entry point."""
    fig = get_figure(name)
    record: List = []
    for task in fig.tasks(scale=scale,
                          seed=seed if seed is not None
                          else config.DEFAULT_SEED):
        record.extend(execute_task(task))
    return record


def render_figure(name: str, record: List) -> str:
    """Render a merged record as the figure's benchmark table."""
    return get_figure(name).render(record)
