"""End-to-end CLI coverage for ``repro campaign``."""

import json
import multiprocessing
import os

import pytest

from repro.cli import main

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the pooled CLI path is exercised with forked workers",
)


def _run(tmp_path, *extra):
    return main([
        "campaign", "run", "--figures", "fig7", "--workers", "0", "--fast",
        "--results-dir", str(tmp_path), *extra,
    ])


def test_campaign_list(capsys):
    assert main(["campaign", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("table1", "fig7", "fig13"):
        assert name in out
    assert "total:" in out


def test_campaign_run_writes_artifacts(tmp_path, capsys):
    assert _run(tmp_path) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "hit rate" in out
    assert (tmp_path / "fig7.txt").exists()
    assert (tmp_path / "fig7.json").exists()
    summary = json.loads((tmp_path / "BENCH_campaign.json").read_text())
    assert summary["failures"] == 0
    assert summary["tasks_total"] == 7
    assert summary["cache"]["hits"] == 0
    assert {t["elapsed_s"] >= 0 for t in summary["tasks"]} == {True}
    payload = json.loads((tmp_path / "fig7.json").read_text())
    assert payload["figure"] == "fig7"
    assert len(payload["record"]) == 7


def test_campaign_rerun_hits_cache(tmp_path, capsys):
    assert _run(tmp_path) == 0
    first = (tmp_path / "fig7.txt").read_text()
    assert _run(tmp_path) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "BENCH_campaign.json").read_text())
    assert summary["cache"]["hit_rate"] == 1.0
    # cached artifacts are byte-identical to freshly computed ones
    assert (tmp_path / "fig7.txt").read_text() == first
    assert len(list((tmp_path / "cache").glob("*.json"))) == 7


@fork_only
def test_campaign_pooled_cli_matches_serial(tmp_path, capsys):
    """The CLI's worker-pool path: a cold ``--workers 2`` run writes the
    serial run's table, its warm re-run is served from the cache, and
    an injected failure still exits non-zero."""
    assert _run(tmp_path / "serial", "--no-cache") == 0
    pooled = tmp_path / "pooled"
    args = ["campaign", "run", "--figures", "fig7", "--workers", "2",
            "--fast", "--results-dir", str(pooled)]
    assert main(args) == 0
    assert (pooled / "fig7.txt").read_bytes() == \
        (tmp_path / "serial" / "fig7.txt").read_bytes()
    assert main(args) == 0
    summary = json.loads((pooled / "BENCH_campaign.json").read_text())
    assert summary["cache"]["hit_rate"] == 1.0
    assert main([*args, "--no-cache", "--retries", "1",
                 "--fail-tasks", "fig7"]) == 1
    capsys.readouterr()


def test_campaign_no_cache_skips_store(tmp_path, capsys):
    assert _run(tmp_path, "--no-cache") == 0
    capsys.readouterr()
    assert not (tmp_path / "cache").exists()


def test_campaign_injected_failure_exits_nonzero(tmp_path, capsys):
    rc = _run(tmp_path, "--no-cache", "--retries", "0",
              "--fail-tasks", "fig7")
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert not (tmp_path / "fig7.txt").exists()
    summary = json.loads((tmp_path / "BENCH_campaign.json").read_text())
    assert summary["failures"] == 7


def test_campaign_unknown_figure_rejected(tmp_path, capsys):
    rc = main(["campaign", "run", "--figures", "fig99",
               "--results-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown figure" in capsys.readouterr().out


def test_campaign_status(tmp_path, capsys):
    assert _run(tmp_path) == 0
    capsys.readouterr()
    assert main(["campaign", "status", "--results-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "last campaign" in out
    assert "cache hit rate" in out
    assert "entries" in out


def test_campaign_status_empty_dir(tmp_path, capsys):
    assert main(["campaign", "status", "--results-dir",
                 str(tmp_path / "none")]) == 0
    assert "no campaign summary" in capsys.readouterr().out


def test_results_dir_env_override(tmp_path, monkeypatch):
    from repro.campaign import artifacts

    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert artifacts.default_results_dir() == str(tmp_path)
    assert artifacts.default_cache_dir() == os.path.join(
        str(tmp_path), "cache")


def test_campaign_shard_then_merge_matches_unsharded(tmp_path, capsys):
    """`--shard i/N` fills the cache and defers artifacts; the same run
    without `--shard` assembles them byte-identical to an unsharded
    run, from cache hits alone."""
    ref = tmp_path / "ref"
    assert _run(ref, "--no-cache") == 0
    sharded = tmp_path / "sharded"
    for shard in ("1/2", "2/2"):
        assert _run(sharded, "--shard", shard) == 0
    out = capsys.readouterr().out
    assert "without --shard" in out  # shard runs defer emission
    assert not (sharded / "fig7.txt").exists()
    assert _run(sharded) == 0
    assert "cache 7/7" in capsys.readouterr().out
    assert (sharded / "fig7.txt").read_bytes() == \
        (ref / "fig7.txt").read_bytes()
    ref_record = json.loads((ref / "fig7.json").read_text())["record"]
    got_record = json.loads((sharded / "fig7.json").read_text())["record"]
    assert got_record == ref_record


def test_campaign_assembly_computes_missing_shard(tmp_path, capsys):
    """Where a shard never ran, the unsharded run computes its tasks."""
    assert _run(tmp_path, "--shard", "1/2") == 0
    capsys.readouterr()
    assert _run(tmp_path) == 0
    assert "cache 4/7" in capsys.readouterr().out
    assert (tmp_path / "fig7.txt").exists()


def test_campaign_bad_flag_combinations(tmp_path, capsys):
    assert _run(tmp_path, "--shard", "5/2") == 2
    assert "bad --shard" in capsys.readouterr().out
    # a shard's only output is its cache entries
    assert _run(tmp_path, "--shard", "1/2", "--no-cache") == 2
    assert "drop --no-cache" in capsys.readouterr().out
    assert not (tmp_path / "cache").exists()


def test_campaign_quarantine_report_printed(tmp_path, capsys):
    rc = _run(tmp_path, "--retries", "0", "--fail-tasks", "fig7")
    assert rc == 1
    out = capsys.readouterr().out
    assert "quarantined 7 task(s)" in out
    summary = json.loads((tmp_path / "BENCH_campaign.json").read_text())
    assert summary["quarantined"] == 7
    assert {t["failure_class"] for t in summary["tasks"]} == {"error"}
    # nothing quarantined is stored: the next run retries every task
    assert not list((tmp_path / "cache").glob("*.json"))
