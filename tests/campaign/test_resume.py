"""Resuming and assembling campaigns from the result cache.

Every success is published to the content-addressed cache before the
campaign moves on, so re-running a campaign that was killed mid-run
re-executes only the tasks it had not finished, and its artifacts are
byte-identical to an uninterrupted run.  Shards partition the same task
list deterministically; an unsharded run over the cache the shards
filled assembles them.  Everything here runs with ``workers=0`` — the
cache logic is identical on the serial path and the tests stay fast and
start-method-independent.
"""

import os

import pytest

from repro.campaign.cache import ResultCache, task_key
from repro.campaign.executor import campaign_specs, run_campaign
from repro.campaign.spec import FigureSpec
from repro.harness import scenarios


def toy_scenario(seed, xs, duration_ms):
    return [[x, x * seed, duration_ms] for x in xs]


def counting_scenario(seed, xs, counter_dir, duration_ms):
    with open(os.path.join(counter_dir, f"ran-{xs[0]}"), "w") as fh:
        fh.write("1")
    return [[x, x * seed] for x in xs]


TOY = FigureSpec(
    name="toy", scenario="toy_scenario", title="Toy", headers=("x", "y", "d"),
    axes=("xs",), grid=((1, 2, 3, 4, 5),), duration_base=8, duration_floor=1,
)
REGISTRY = {"toy": TOY}


@pytest.fixture
def toy_registry(monkeypatch):
    monkeypatch.setitem(scenarios.SCENARIOS, "toy_scenario", toy_scenario)
    monkeypatch.setitem(scenarios.SCENARIOS, "counting_scenario",
                        counting_scenario)
    return REGISTRY


def entry_paths(cache, registry, positions):
    """The cache files of the tasks at ``positions`` in serial order."""
    _names, specs = campaign_specs(["toy"], seed=7, registry=registry)
    return [os.path.join(cache.root, f"{task_key(specs[p])}.json")
            for p in positions]


def test_resume_skips_completed_tasks(toy_registry, tmp_path):
    counting = FigureSpec(
        name="toy", scenario="counting_scenario", title="Toy",
        headers=("x", "y"), axes=("xs",), grid=((1, 2, 3, 4, 5),),
        duration_base=8, duration_floor=1,
        base_params={"counter_dir": str(tmp_path)},
    )
    registry = {"toy": counting}
    cache = ResultCache(str(tmp_path / "cache"))
    full = run_campaign(["toy"], workers=0, seed=7, registry=registry,
                        cache=cache)
    assert len(full.failures) == 0
    assert len(list(tmp_path.glob("ran-*"))) == 5

    # a crash that lost the last two tasks: only three entries were
    # published before the process died
    for path in entry_paths(cache, registry, (3, 4)):
        os.unlink(path)
    for p in tmp_path.glob("ran-*"):
        p.unlink()

    resumed = run_campaign(["toy"], workers=0, seed=7, registry=registry,
                           cache=cache)
    assert resumed.cache_hits == 3
    assert len(resumed.failures) == 0
    # only the two lost tasks re-executed
    assert sorted(p.name for p in tmp_path.glob("ran-*")) == \
        ["ran-4", "ran-5"]
    assert resumed.record_for("toy") == full.record_for("toy")
    assert cache.stats()["entries"] == 5


def test_resume_tolerates_torn_tail(toy_registry, tmp_path):
    """An entry cut off mid-write is a miss: the re-run recomputes it
    and the record is unchanged."""
    cache = ResultCache(str(tmp_path / "cache"))
    full = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                        cache=cache)
    (path,) = entry_paths(cache, toy_registry, (2,))
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])
    resumed = run_campaign(["toy"], workers=0, seed=7,
                           registry=toy_registry, cache=cache)
    assert resumed.cache_hits == 4
    assert not resumed.outcomes[2].from_cache
    assert resumed.record_for("toy") == full.record_for("toy")


def test_shard_partition_and_merge(toy_registry, tmp_path):
    """Two shards fill one cache; the unsharded run over it is all
    cache hits and equals the serial run."""
    cache = ResultCache(str(tmp_path / "cache"))
    serial = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry)
    a = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                     cache=cache, shard=(1, 2))
    b = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                     cache=cache, shard=(2, 2))
    # deterministic modulo partition, together covering the grid
    assert [o.spec.index for o in a.outcomes] == [0, 2, 4]
    assert [o.spec.index for o in b.outcomes] == [1, 3]
    merged = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                          cache=cache)
    assert merged.record_for("toy") == serial.record_for("toy")
    assert merged.failures == []
    assert merged.cache_hits == 5


def test_unsharded_run_computes_missing_shard(toy_registry, tmp_path):
    """A shard that never ran leaves its tasks out of the cache; the
    unsharded run computes them instead of failing."""
    cache = ResultCache(str(tmp_path / "cache"))
    serial = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry)
    run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                 cache=cache, shard=(1, 2))
    merged = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                          cache=cache)
    assert merged.failures == []
    assert [o.from_cache for o in merged.outcomes] == \
        [True, False, True, False, True]
    assert merged.record_for("toy") == serial.record_for("toy")


def test_bad_shard_rejected(toy_registry):
    with pytest.raises(ValueError, match="shard"):
        run_campaign(["toy"], workers=0, registry=toy_registry, shard=(3, 2))


def test_quarantine_terminates_with_partial_results(toy_registry, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    res = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                       cache=cache, retries=2, fail_tasks="toy")
    assert len(res.quarantined) == 5
    assert all(o.attempts == 3 for o in res.quarantined)
    assert all(o.failure_class == "error" for o in res.quarantined)
    assert "quarantined 5 task(s)" in res.quarantine_report()
    summary = res.summary()
    assert summary["quarantined"] == 5
    assert {(t["attempts"], t["failure_class"]) for t in summary["tasks"]} \
        == {(3, "error")}
    # quarantined tasks are not stored, so a re-run retries them
    assert cache.stats()["entries"] == 0
    again = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                         cache=cache)
    assert again.failures == [] and again.cache_hits == 0
