"""Content-addressed result cache: keying, round-trip, corruption."""

import json
import os
import shutil

from repro.campaign.cache import (
    ResultCache,
    package_digest,
    scenario_fingerprint,
    task_key,
)
from repro.campaign.spec import TaskSpec


def _spec(**over):
    base = dict(figure="fig7", scenario="fig7_tl_sweep",
                params={"tls_us": (300,), "duration_ms": 20}, seed=5)
    base.update(over)
    return TaskSpec(**base)


def test_put_get_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = _spec()
    assert cache.get(spec, fingerprint="abc") is None
    cache.put(spec, [[300, 1.5, 0.4]], 0.2, fingerprint="abc")
    entry = cache.get(spec, fingerprint="abc")
    assert entry is not None
    assert entry.record == [[300, 1.5, 0.4]]
    assert entry.elapsed_s == 0.2


def test_key_varies_with_seed_params_fingerprint():
    base = task_key(_spec(), fingerprint="fp")
    assert task_key(_spec(seed=6), fingerprint="fp") != base
    assert task_key(_spec(params={"tls_us": (400,), "duration_ms": 20}),
                    fingerprint="fp") != base
    assert task_key(_spec(), fingerprint="fp2") != base
    # task index does not participate in the key: re-sharding a grid
    # must not invalidate cached points
    assert task_key(_spec(index=9), fingerprint="fp") == base


def test_default_fingerprint_resolves_from_scenario():
    spec = _spec()
    explicit = task_key(spec, fingerprint=scenario_fingerprint(spec.scenario))
    assert task_key(spec) == explicit


def test_record_is_json_normalized_on_put(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = _spec()
    cache.put(spec, [(300, 1.5)], 0.1, fingerprint="abc")
    entry = cache.get(spec, fingerprint="abc")
    assert entry.record == [[300, 1.5]]


def test_corrupt_entry_is_a_miss_and_is_evicted(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = _spec()
    key = cache.put(spec, [1], 0.1, fingerprint="abc")
    path = tmp_path / f"{key}.json"
    path.write_text("{not json", encoding="utf-8")
    assert cache.get(spec, fingerprint="abc") is None
    # the corrupt file is evicted so a fresh put can land (put skips
    # already-present paths)
    assert not path.exists()
    cache.put(spec, [2], 0.1, fingerprint="abc")
    assert cache.get(spec, fingerprint="abc").record == [2]


def test_put_keeps_existing_entry(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = _spec()
    cache.put(spec, [1], 0.1, fingerprint="abc")
    # a second writer computing the same content-addressed record must
    # not clobber the entry (records are deterministic per key)
    cache.put(spec, [1], 9.9, fingerprint="abc")
    assert cache.get(spec, fingerprint="abc").elapsed_s == 0.1


def test_concurrent_writers_never_corrupt(tmp_path):
    """Two processes hammering the same key leave exactly one valid
    entry — the shard-campaigns-sharing-a-cache regression test."""
    import multiprocessing as mp

    spec = _spec()

    def writer(root, reps, out):
        c = ResultCache(root)
        try:
            for i in range(reps):
                c.put(spec, [[300, 1.5, 0.4]], 0.2, fingerprint="abc")
                entry = c.get(spec, fingerprint="abc")
                assert entry is not None, "reader saw a partial entry"
                assert entry.record == [[300, 1.5, 0.4]]
            out.put("ok")
        except BaseException as exc:  # surface the failure to the parent
            out.put(f"{type(exc).__name__}: {exc}")

    ctx = mp.get_context()
    out = ctx.Queue()
    procs = [ctx.Process(target=writer, args=(str(tmp_path), 200, out))
             for _ in range(2)]
    for p in procs:
        p.start()
    results = [out.get(timeout=60) for _ in procs]
    for p in procs:
        p.join(timeout=60)
    assert results == ["ok", "ok"]
    entry = ResultCache(str(tmp_path)).get(spec, fingerprint="abc")
    assert entry is not None and entry.record == [[300, 1.5, 0.4]]
    # no stray temp files left behind by either writer
    assert all(not n.endswith(".tmp") for n in os.listdir(tmp_path))


def test_entries_are_flat_json_files(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = cache.put(_spec(), [[1, 2]], 0.3, fingerprint="abc")
    payload = json.loads((tmp_path / f"{key}.json").read_text())
    assert payload["record"] == [[1, 2]]
    assert payload["spec"]["figure"] == "fig7"
    # no stray temp files left behind by the atomic write
    assert all(not n.endswith(".tmp") for n in os.listdir(tmp_path))


def test_stats_and_clear(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    cache.put(_spec(), [1], 0.1, fingerprint="abc")
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["bytes"] > 0
    # clearing the cache is deleting its directory
    shutil.rmtree(cache.root)
    assert cache.stats()["entries"] == 0
    assert cache.get(_spec(), fingerprint="abc") is None


def test_missing_root_is_harmless(tmp_path):
    cache = ResultCache(str(tmp_path / "nope"))
    assert cache.get(_spec(), fingerprint="abc") is None
    assert cache.stats()["entries"] == 0


def test_package_digest_stable_and_scenario_sensitive():
    assert package_digest() == package_digest()
    assert scenario_fingerprint("fig7_tl_sweep") != \
        scenario_fingerprint("fig8_m_sweep")


def test_scenarios_residue_covers_module_level_code():
    # module-level code shared by scenarios (constants like LINE, the
    # registry table) must participate in the digest, while registered
    # function bodies are stripped (they are fingerprinted per-function)
    from repro.campaign.cache import _scenarios_residue

    residue = _scenarios_residue().decode()
    assert "LINE = " in residue
    assert "SCENARIOS: Dict" in residue
    assert "def fig7_tl_sweep(" not in residue
    assert "def table1_sleep_precision(" not in residue
