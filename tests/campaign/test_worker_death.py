"""Worker-death resilience: SIGKILL mid-wave, crash-blame, quarantine.

A pool worker dying poisons every in-flight future with
``BrokenProcessPool``.  The executor must classify the loss as a
``crash``, re-run the involved tasks (isolated when the culprit is
ambiguous), and still produce a merged record byte-identical to the
serial run — or quarantine a genuinely poisoned task and complete with
partial results.  Relies on the fork start method (Linux default) so
workers inherit the monkeypatched toy scenarios.
"""

import multiprocessing
import os
import signal

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


def self_kill_scenario(seed, xs, marker, duration_ms):
    # SIGKILL our own worker process, once per marker file: the classic
    # OOM-killer / infra-kill shape
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("killed")
        os.kill(os.getpid(), signal.SIGKILL)
    return [[x, x * seed, duration_ms] for x in xs]


def always_kill_scenario(seed, xs, duration_ms):
    os.kill(os.getpid(), signal.SIGKILL)


TOY = FigureSpec(
    name="toy", scenario="toy_scenario", title="Toy", headers=("x", "y", "d"),
    axes=("xs",), grid=((1, 2, 3, 4, 5),), duration_base=8, duration_floor=1,
)


@pytest.fixture
def killer_registry(monkeypatch, tmp_path):
    monkeypatch.setitem(scenarios.SCENARIOS, "toy_scenario", toy_scenario)
    monkeypatch.setitem(scenarios.SCENARIOS, "self_kill_scenario",
                        self_kill_scenario)
    monkeypatch.setitem(scenarios.SCENARIOS, "always_kill_scenario",
                        always_kill_scenario)
    return tmp_path


def kill_spec(tmp_path, index=0):
    return TaskSpec(
        figure="toy", scenario="self_kill_scenario",
        params={"xs": (9,), "marker": str(tmp_path / f"marker{index}"),
                "duration_ms": 1},
        seed=7, index=index)


@fork_only
def test_sigkilled_worker_rolls_to_fresh_pool(killer_registry, tmp_path):
    """One worker dies mid-wave; its task retries on a fresh pool, the
    crash is on its outcome, and every success reaches the cache."""
    specs = TOY.tasks(seed=7)[:3] + [kill_spec(tmp_path, index=3)]
    cache = ResultCache(str(tmp_path / "cache"))
    outcomes = run_tasks(specs, workers=2, retries=2, timeout_s=120,
                         cache=cache)
    assert all(o.ok for o in outcomes)
    victim = outcomes[3]
    assert victim.failure_class == "crash"
    assert victim.attempts >= 2
    assert victim.record == [[9, 63, 1]]
    assert cache.get(specs[3]).record == [[9, 63, 1]]
    assert cache.stats()["entries"] == 4


@fork_only
def test_merged_record_identical_to_serial_after_crash(killer_registry,
                                                       tmp_path,
                                                       monkeypatch):
    """The record assembled after a mid-wave SIGKILL is byte-identical
    to a crash-free serial run of the same figure."""
    killer = FigureSpec(
        name="toy", scenario="self_kill_scenario", title="Toy",
        headers=("x", "y", "d"), axes=("xs",), grid=((1, 2, 3, 4, 5),),
        duration_base=8, duration_floor=1,
        base_params={"marker": str(tmp_path / "marker")},
    )
    registry = {"toy": killer}
    crashed = run_campaign(["toy"], workers=2, seed=7, registry=registry,
                           retries=2, timeout_s=120)
    assert any(o.failure_class == "crash" for o in crashed.outcomes)
    # serial reference (marker exists now, so no further kills)
    serial = run_campaign(["toy"], workers=0, seed=7, registry=registry)
    assert crashed.record_for("toy") == serial.record_for("toy")


@fork_only
def test_poisoned_task_is_quarantined(killer_registry, tmp_path):
    """A task that kills every worker it touches is quarantined after
    its attempt budget; the rest of the grid completes."""
    specs = TOY.tasks(seed=7)[:3] + [TaskSpec(
        figure="toy", scenario="always_kill_scenario",
        params={"xs": (9,), "duration_ms": 1}, index=3)]
    outcomes = run_tasks(specs, workers=2, retries=1, timeout_s=120)
    poisoned = outcomes[3]
    assert poisoned.quarantined
    assert poisoned.failure_class == "crash"
    assert poisoned.attempts == 2  # first attempt + one retry
    healthy = outcomes[:3]
    assert all(o.ok for o in healthy)


@fork_only
def test_ambiguous_crash_does_not_charge_innocents(killer_registry,
                                                   tmp_path):
    """When several tasks are in flight at crash time, nobody is
    charged; every suspect re-runs isolated and the innocents finish
    with their attempt budget intact."""
    import time as _time

    def slow_scenario(seed, xs, duration_ms):
        _time.sleep(1.0)
        return [[x, x * seed] for x in xs]

    def slow_kill_scenario(seed, xs, marker, duration_ms):
        if not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write("killed")
            _time.sleep(0.4)  # let the slow neighbour get in flight
            os.kill(os.getpid(), signal.SIGKILL)
        return [[x, x * seed] for x in xs]

    scenarios.SCENARIOS["slow_scenario"] = slow_scenario
    scenarios.SCENARIOS["slow_kill_scenario"] = slow_kill_scenario
    try:
        specs = [
            TaskSpec(figure="toy", scenario="slow_scenario",
                     params={"xs": (1,), "duration_ms": 1}, index=0),
            TaskSpec(figure="toy", scenario="slow_kill_scenario",
                     params={"xs": (2,),
                             "marker": str(tmp_path / "slowmark"),
                             "duration_ms": 1},
                     index=1),
        ]
        outcomes = run_tasks(specs, workers=2, retries=1, timeout_s=120)
    finally:
        scenarios.SCENARIOS.pop("slow_scenario", None)
        scenarios.SCENARIOS.pop("slow_kill_scenario", None)
    assert all(o.ok for o in outcomes)
    # both suspects went to isolation uncharged: the innocent slow task
    # keeps its retry budget, and the killer (its marker now written)
    # succeeds there too, each on exactly one charged attempt
    assert [(o.attempts, o.failure_class) for o in outcomes] == \
        [(1, "crash"), (1, "crash")]
