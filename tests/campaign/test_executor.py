"""Executor behaviour: merge order, retries, caching, timeouts.

Worker-pool tests rely on the fork start method (Linux default) so the
monkeypatched toy scenario is inherited by worker processes.
"""

import multiprocessing
import time

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.executor import run_campaign, run_tasks
from repro.campaign.spec import FigureSpec, TaskSpec
from repro.harness import scenarios

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker tests need fork to inherit the patched registry",
)


def toy_scenario(seed, xs, duration_ms):
    return [[x, x * seed, duration_ms] for x in xs]


def flaky_scenario(seed, xs, marker, duration_ms):
    # fails once per marker file, then succeeds on the retry
    import os

    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempted")
        raise RuntimeError("transient")
    return [[x, seed] for x in xs]


def sleepy_scenario(seed, xs, duration_ms):
    time.sleep(30)
    return [[x] for x in xs]


TOY = FigureSpec(
    name="toy", scenario="toy_scenario", title="Toy", headers=("x", "y", "d"),
    axes=("xs",), grid=((1, 2, 3),), duration_base=8, duration_floor=1,
)
REGISTRY = {"toy": TOY}


@pytest.fixture
def toy_registry(monkeypatch):
    monkeypatch.setitem(scenarios.SCENARIOS, "toy_scenario", toy_scenario)
    monkeypatch.setitem(scenarios.SCENARIOS, "flaky_scenario", flaky_scenario)
    monkeypatch.setitem(scenarios.SCENARIOS, "sleepy_scenario",
                        sleepy_scenario)
    return REGISTRY


def test_serial_merge_is_grid_order(toy_registry):
    result = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry)
    assert result.record_for("toy") == [[1, 7, 8], [2, 14, 8], [3, 21, 8]]
    assert [o.spec.index for o in result.outcomes] == [0, 1, 2]
    assert all(o.ok and o.attempts == 1 for o in result.outcomes)
    assert result.failures == []


def test_outcomes_keep_spec_order(toy_registry):
    specs = [
        TaskSpec(figure="toy", scenario="toy_scenario",
                 params={"xs": (x,), "duration_ms": 1}, index=i)
        for i, x in enumerate((5, 4, 3))
    ]
    outcomes = run_tasks(specs, workers=0)
    assert [o.spec.params["xs"] for o in outcomes] == [[5], [4], [3]]


def test_cache_round_trip(toy_registry, tmp_path):
    cache = ResultCache(str(tmp_path))
    first = run_campaign(["toy"], workers=0, registry=toy_registry,
                         cache=cache)
    assert first.cache_hits == 0 and first.cache_misses == 3
    again = run_campaign(["toy"], workers=0, registry=toy_registry,
                         cache=cache)
    assert again.cache_hits == 3 and again.cache_hit_rate == 1.0
    assert again.record_for("toy") == first.record_for("toy")
    # a different seed is a different content address
    other = run_campaign(["toy"], workers=0, seed=99, registry=toy_registry,
                         cache=cache)
    assert other.cache_hits == 0


def test_scenario_source_hashed_once_per_run(toy_registry, tmp_path,
                                             monkeypatch):
    import repro.campaign.executor as executor

    hashed = []
    real = executor.scenario_fingerprint
    monkeypatch.setattr(executor, "scenario_fingerprint",
                        lambda name: hashed.append(name) or real(name))
    result = run_campaign(["toy"], workers=0, registry=toy_registry,
                          cache=ResultCache(str(tmp_path)))
    assert len(result.outcomes) == 3
    assert hashed == ["toy_scenario"]


def test_injected_failure_exhausts_retries(toy_registry):
    result = run_campaign(["toy"], workers=0, retries=2,
                          fail_tasks="toy", registry=toy_registry)
    assert len(result.failures) == 3
    assert all(o.attempts == 3 for o in result.outcomes)
    assert all("InjectedFailure" in o.error for o in result.failures)
    assert result.record_for("toy") is None
    assert "failures" in result.summary() and \
        result.summary()["failures"] == 3


def test_flaky_task_recovers_on_retry_serial(toy_registry, tmp_path):
    spec = TaskSpec(
        figure="toy", scenario="flaky_scenario",
        params={"xs": (1,), "marker": str(tmp_path / "m"), "duration_ms": 1},
    )
    (outcome,) = run_tasks([spec], workers=0, retries=2)
    assert outcome.ok
    assert outcome.attempts == 2
    assert outcome.record == [[1, 2020]]


def test_retries_zero_fails_fast(toy_registry, tmp_path):
    spec = TaskSpec(
        figure="toy", scenario="flaky_scenario",
        params={"xs": (1,), "marker": str(tmp_path / "m"), "duration_ms": 1},
    )
    (outcome,) = run_tasks([spec], workers=0, retries=0)
    assert not outcome.ok
    assert outcome.attempts == 1


@fork_only
def test_workers_match_serial(toy_registry):
    serial = run_campaign(["toy"], workers=0, registry=toy_registry)
    parallel = run_campaign(["toy"], workers=2, registry=toy_registry)
    assert parallel.record_for("toy") == serial.record_for("toy")
    assert parallel.workers == 2


@fork_only
def test_flaky_task_recovers_on_fresh_worker(toy_registry, tmp_path):
    spec = TaskSpec(
        figure="toy", scenario="flaky_scenario",
        params={"xs": (4,), "marker": str(tmp_path / "m"), "duration_ms": 1},
    )
    (outcome,) = run_tasks([spec], workers=2, retries=2)
    assert outcome.ok
    assert outcome.attempts == 2
    assert outcome.record == [[4, 2020]]


@fork_only
def test_timeout_is_an_error_after_retries(toy_registry):
    spec = TaskSpec(figure="toy", scenario="sleepy_scenario",
                    params={"xs": (1,), "duration_ms": 1})
    (outcome,) = run_tasks([spec], workers=1, timeout_s=0.5, retries=0)
    assert not outcome.ok
    assert "timeout" in outcome.error


@fork_only
def test_queued_tasks_survive_hung_worker(toy_registry):
    # one worker, a hung task in front: the queued tasks can never
    # start in that wave, so they must be cancelled and rerun on the
    # next wave's fresh pool instead of being polled forever
    specs = [
        TaskSpec(figure="toy", scenario="sleepy_scenario",
                 params={"xs": (1,), "duration_ms": 1}, index=0),
        TaskSpec(figure="toy", scenario="toy_scenario",
                 params={"xs": (2,), "duration_ms": 1}, index=1),
        TaskSpec(figure="toy", scenario="toy_scenario",
                 params={"xs": (3,), "duration_ms": 1}, index=2),
    ]
    hung, ok1, ok2 = run_tasks(specs, workers=1, timeout_s=0.5, retries=0)
    assert not hung.ok and "timeout" in hung.error
    assert ok1.ok and ok1.record == [[2, 2 * 2020, 1]]
    assert ok2.ok and ok2.record == [[3, 3 * 2020, 1]]
    # cancellation is not an attempt — the queued tasks ran exactly once
    assert ok1.attempts == 1 and ok2.attempts == 1


def test_duplicate_figures_are_deduped(toy_registry):
    result = run_campaign(["toy", "toy"], workers=0, registry=toy_registry)
    assert result.figures == ("toy",)
    assert len(result.outcomes) == 3
    assert all(o.attempts == 1 for o in result.outcomes)


def test_duplicate_specs_do_not_share_attempts(toy_registry):
    spec = TaskSpec(figure="toy", scenario="toy_scenario",
                    params={"xs": (1,), "duration_ms": 1})
    first, second = run_tasks([spec, spec], workers=0)
    assert first.ok and second.ok
    assert first.attempts == 1 and second.attempts == 1
    assert first.record == second.record


def test_summary_shape(toy_registry):
    result = run_campaign(["toy"], workers=0, registry=toy_registry)
    summary = result.summary()
    assert summary["tasks_total"] == 3
    assert summary["figures"] == ["toy"]
    assert set(summary["cache"]) == {"hits", "misses", "hit_rate"}
    for task in summary["tasks"]:
        assert {"figure", "index", "scenario", "elapsed_s", "attempts",
                "from_cache", "error"} <= set(task)


def test_unknown_figure_raises(toy_registry):
    with pytest.raises(KeyError):
        run_campaign(["nope"], workers=0, registry=toy_registry)
