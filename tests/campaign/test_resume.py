"""Crash-safe resume and sharded merge.

A campaign killed mid-run leaves a journal whose completed tasks are
replayed on ``--resume``; only the unfinished tail re-executes, and the
final artifacts are byte-identical to an uninterrupted run.  Shards
partition the same task list deterministically and ``merge_shards``
reassembles them.  Everything here runs with ``workers=0`` — the
resume/merge logic is identical on the serial path and the tests stay
fast and start-method-independent.
"""

import os

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.executor import (
    campaign_specs,
    merge_shards,
    run_campaign,
)
from repro.campaign.journal import (
    JournalError,
    campaign_identity,
    journal_path,
    load_journal,
)
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


def journal_for(tmp_path, registry, **kw):
    names, specs = campaign_specs(["toy"], registry=registry, **kw)
    ident = campaign_identity(specs, seed=kw.get("seed", 2020), scale=1.0,
                              figures=names)
    return load_journal(journal_path(str(tmp_path), ident))


def test_resume_skips_completed_tasks(toy_registry, tmp_path, monkeypatch):
    counting = FigureSpec(
        name="toy", scenario="counting_scenario", title="Toy",
        headers=("x", "y"), axes=("xs",), grid=((1, 2, 3, 4, 5),),
        duration_base=8, duration_floor=1,
        base_params={"counter_dir": str(tmp_path)},
    )
    registry = {"toy": counting}
    jdir = str(tmp_path / "journal")
    full = run_campaign(["toy"], workers=0, seed=7, registry=registry,
                        journal_dir=jdir)
    assert len(full.failures) == 0
    ran_markers = sorted(p.name for p in tmp_path.glob("ran-*"))
    assert len(ran_markers) == 5

    # simulate a crash that lost the last two outcomes: truncate the
    # journal to header + 3 task records (what an fsynced WAL holds if
    # the process died mid-wave)
    names, specs = campaign_specs(["toy"], seed=7, registry=registry)
    ident = campaign_identity(specs, seed=7, scale=1.0, figures=names)
    path = journal_path(jdir, ident)
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:4]) + "\n")
    for p in tmp_path.glob("ran-*"):
        p.unlink()

    resumed = run_campaign(["toy"], workers=0, seed=7, registry=registry,
                           journal_dir=jdir, resume=True)
    assert resumed.resumed_count == 3
    assert len(resumed.failures) == 0
    # only the two lost tasks re-executed
    assert len(sorted(tmp_path.glob("ran-*"))) == 2
    assert resumed.record_for("toy") == full.record_for("toy")


def test_resume_tolerates_torn_tail(toy_registry, tmp_path):
    jdir = str(tmp_path / "journal")
    full = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                        journal_dir=jdir)
    names, specs = campaign_specs(["toy"], seed=7, registry=toy_registry)
    ident = campaign_identity(specs, seed=7, scale=1.0, figures=names)
    path = journal_path(jdir, ident)
    with open(path) as fh:
        lines = fh.read().splitlines()
    # keep header + 2 records, then a half-written third — the exact
    # on-disk shape of a SIGKILL mid-append
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2])
    resumed = run_campaign(["toy"], workers=0, seed=7,
                           registry=toy_registry, journal_dir=jdir,
                           resume=True)
    assert resumed.resumed_count == 2
    assert resumed.record_for("toy") == full.record_for("toy")


def test_resume_refuses_foreign_journal(toy_registry, tmp_path):
    jdir = str(tmp_path / "journal")
    run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                 journal_dir=jdir)
    names, specs = campaign_specs(["toy"], seed=7, registry=toy_registry)
    ident = campaign_identity(specs, seed=7, scale=1.0, figures=names)
    path = journal_path(jdir, ident)
    with open(path) as fh:
        content = fh.read()
    with open(path, "w") as fh:
        fh.write(content.replace('"package_digest":"',
                                 '"package_digest":"00', 1))
    with pytest.raises(JournalError, match="different code version"):
        run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                     journal_dir=jdir, resume=True)


def test_fresh_run_truncates_stale_journal(toy_registry, tmp_path):
    jdir = str(tmp_path / "journal")
    run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                 journal_dir=jdir)
    # without --resume the stale journal must not leak old decisions
    again = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                         journal_dir=jdir)
    assert again.resumed_count == 0
    state = journal_for(tmp_path / "journal", toy_registry, seed=7)
    assert len(state.completed()) == 5


def test_shard_partition_and_merge(toy_registry, tmp_path):
    jdir = str(tmp_path / "journal")
    serial = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry)
    a = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                     journal_dir=jdir, shard=(1, 2))
    b = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                     journal_dir=jdir, shard=(2, 2))
    # deterministic modulo partition, together covering the grid
    assert len(a.outcomes) == 3 and len(b.outcomes) == 2
    merged = merge_shards(["toy"], shards=2, seed=7, journal_dir=jdir,
                          registry=toy_registry)
    assert merged.record_for("toy") == serial.record_for("toy")
    assert merged.failures == []
    assert all(o.resumed for o in merged.outcomes)


def test_merge_reports_missing_shard(toy_registry, tmp_path):
    jdir = str(tmp_path / "journal")
    run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                 journal_dir=jdir, shard=(1, 2))
    merged = merge_shards(["toy"], shards=2, seed=7, journal_dir=jdir,
                          registry=toy_registry)
    assert merged.record_for("toy") is None
    missing = [o for o in merged.failures if o.error.startswith("missing")]
    assert len(missing) == 2


def test_merge_falls_back_to_cache(toy_registry, tmp_path):
    jdir = str(tmp_path / "journal")
    cache = ResultCache(str(tmp_path / "cache"))
    serial = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                          cache=cache)
    run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                 journal_dir=jdir, shard=(1, 2))
    merged = merge_shards(["toy"], shards=2, seed=7, journal_dir=jdir,
                          cache=cache, registry=toy_registry)
    assert merged.failures == []
    assert merged.record_for("toy") == serial.record_for("toy")
    assert sum(1 for o in merged.outcomes if o.from_cache) == 2


def test_bad_shard_rejected(toy_registry):
    with pytest.raises(ValueError, match="shard"):
        run_campaign(["toy"], workers=0, registry=toy_registry, shard=(3, 2))


def test_quarantine_terminates_with_partial_results(toy_registry, tmp_path):
    jdir = str(tmp_path / "journal")
    res = run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                       journal_dir=jdir, retries=2, fail_tasks="toy")
    assert len(res.quarantined) == 5
    assert all(o.attempts == 3 for o in res.quarantined)
    assert all(o.failure_class == "error" for o in res.quarantined)
    assert "quarantined 5 task(s)" in res.quarantine_report()
    state = journal_for(tmp_path / "journal", toy_registry, seed=7)
    assert len(state.quarantined()) == 5
    # two charged retries per task are in the forensics trail
    assert len(state.retries) == 15


def test_backoff_is_seeded_and_bounded(toy_registry, monkeypatch):
    import repro.campaign.executor as executor

    sleeps: list = []
    monkeypatch.setattr(executor.time, "sleep", sleeps.append)
    run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                 retries=2, fail_tasks="toy", backoff_base_s=0.5)
    first = list(sleeps)
    sleeps.clear()
    run_campaign(["toy"], workers=0, seed=7, registry=toy_registry,
                 retries=2, fail_tasks="toy", backoff_base_s=0.5)
    assert first == sleeps  # jitter comes from the seeded stream
    assert all(0 < s <= executor.BACKOFF_CAP_S * 1.5 for s in first)
    assert len(first) == 10  # 5 tasks x 2 charged retries
    # jitter actually varies (not a constant), and the cap holds
    assert len(set(first)) > 1
