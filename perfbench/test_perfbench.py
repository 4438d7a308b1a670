"""Self-tests of the benchmark (run: ``python -m pytest perfbench``).

Short simulated windows keep these fast; the correctness gate's
sample floor is exercised on its own.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import ROOT, metrics, reference, spans, workloads

#: simulated ms per workload: long enough to exercise every layer
SHORT_MS = {"metronome-0.5g": 5, "dpdk-10g": 2, "scale-100g": 1,
            "xdp-trace": 5}
CONTRACT_KEYS = {"command", "paths", "run_seconds", "workloads",
                 "end_to_end", "per_layer"}


def _fingerprint(name: str, seed: int = 3) -> str:
    return workloads.measure(workloads.WORKLOADS[name], seed,
                             SHORT_MS[name]).fingerprint


def test_install_then_remove_leaves_run_byte_identical():
    before = _fingerprint("metronome-0.5g")
    tracer = spans.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    assert len(patched) > 15
    tracer.remove()
    for owner, name, original in patched:
        assert owner.__dict__[name] is original, f"{owner.__name__}.{name}"
    assert _fingerprint("metronome-0.5g") == before


@pytest.mark.parametrize("name", sorted(SHORT_MS))
def test_traced_run_matches_untraced(name):
    untraced = _fingerprint(name)
    with spans.Tracer() as tracer:
        traced = _fingerprint(name)
    assert traced == untraced
    layers = tracer.per_layer()
    assert layers["sim"]["calls"] > 0 and layers["kernel"]["self_ns"] > 0
    assert layers["other"] == {"calls": 0, "self_ns": 0}
    receiver = {"metronome-0.5g": "core", "scale-100g": "core",
                "dpdk-10g": "dpdk", "xdp-trace": "xdp"}[name]
    assert layers[receiver]["calls"] > 0


def test_same_seed_repeats_and_seed_changes_the_trace():
    assert _fingerprint("xdp-trace", 5) == _fingerprint("xdp-trace", 5)
    wl = workloads.WORKLOADS["xdp-trace"]
    shas = {wl.inputs(seed, 5).trace_sha for seed in (5, 6)}
    assert len(shas) == 2


def test_gate_flags_leaks_and_thin_samples():
    counts = {"offered": 100, "delivered": 90, "drops": 5,
              "left_in_rings": 5, "samples": workloads.MIN_SAMPLES}
    assert workloads.check(counts) == []
    assert "conservation" in workloads.check({**counts, "drops": 4})[0]
    assert "samples" in workloads.check({**counts, "samples": 999})[0]


def test_reference_kernel_is_fixed():
    # host metrics are in units of this kernel's speed: its work must
    # never change, or every host metric shifts with it
    assert reference.kernel(reference.flow_table(), 1000) == 72010992


def test_metric_names_units_and_manifest():
    catalogue = metrics.END_TO_END + metrics.PER_LAYER
    names = [m.name for m in catalogue]
    assert len(names) == len(set(names))
    for m in catalogue:
        assert metrics.NAME_RE.fullmatch(m.name), m.name
        assert metrics.UNIT_RE.fullmatch(m.unit), m.unit
        assert m.better in ("higher", "lower")
    for m in metrics.END_TO_END:
        assert 0 < m.bound <= 0.25
    setup = next(m for m in metrics.END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in metrics.END_TO_END)
    assert all(m.moves for m in metrics.PER_LAYER)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == CONTRACT_KEYS
    assert manifest["workloads"] == [
        {"name": name, "why": workloads.WORKLOADS[name].why}
        for name in workloads.GATED
    ]
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in workloads.WORKLOADS.values())
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in metrics.END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]


def _cli(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dpdk-10g",
         "--seed", "2", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,catalogue", [
    ("0", metrics.END_TO_END), ("1", metrics.PER_LAYER)])
def test_cli_prints_every_metric(trace, catalogue):
    proc = _cli("--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in catalogue]
    for m in catalogue:
        assert result["metrics"][m.name]["unit"] == m.unit


def test_cli_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli(cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
