"""Unit tests for the ``repro bench`` suite (logic, not timings).

The wall-clock measurements themselves are exercised by the CI
``bench-smoke`` job; here we pin the workload shapes, the JSON payload
schema, and the baseline regression gate.
"""

import json

import pytest

from repro.bench import perf
from repro.bench.perf import check_result, load_baseline
from repro.sim.core import Simulator
from repro.sim.reference import HeapSimulator


def test_churn_workload_fires_exact_count_on_both_engines():
    for sim_cls in (Simulator, HeapSimulator):
        fired = perf._churn_workload(sim_cls(), iters=500, watchdogs=4)
        assert fired == 500


def test_churn_workload_cancels_watchdogs():
    sim = Simulator()
    perf._churn_workload(sim, iters=200, watchdogs=8)
    # every watchdog of the finished run was cancelled except the last
    # tick's batch, which survives to expiry — but the run ends first,
    # so nothing live remains beyond those
    assert sim.pending <= 8


def test_fire_workload_is_pure():
    sim = Simulator()
    fired = perf._fire_workload(sim, iters=1_000, chains=8)
    # chains already in flight when the count hits `iters` still fire
    assert 1_000 <= fired < 1_000 + 8
    assert sim.pending == 0


# speedup > 1.0 is a wall-clock ratio: settrace coverage slows the live
# core's per-event bookkeeping more than the frozen heap baseline
@pytest.mark.no_settrace
def test_run_benches_payload_schema():
    result = perf.run_benches(quick=True)
    assert result["schema"] == perf.SCHEMA_VERSION
    assert result["mode"] == "quick"
    churn = result["benches"]["event_churn"]
    for key in ("iters", "events_per_sec", "heap_events_per_sec", "speedup"):
        assert key in churn
    assert churn["speedup"] > 1.0
    assert set(result["benches"]) == {
        "event_churn", "event_fire", "checkpoint", "lint"}
    # payload is JSON-serializable as emitted by the CLI
    json.dumps(result)


def _payload(churn_speedup, fire_speedup, mode="quick"):
    return {
        "schema": 1,
        "mode": mode,
        "benches": {
            "event_churn": {"speedup": churn_speedup},
            "event_fire": {"speedup": fire_speedup},
        },
    }


def test_check_passes_without_baseline():
    assert check_result(_payload(3.0, 1.0)) == []


def test_check_enforces_churn_floor():
    fails = check_result(_payload(1.5, 1.0))
    assert len(fails) == 1 and "floor" in fails[0]
    # full mode has the 3x headline floor
    fails = check_result(_payload(2.5, 1.0, mode="full"))
    assert len(fails) == 1 and "3.0x" in fails[0]


def test_check_enforces_baseline_ratio():
    baseline = _payload(3.0, 1.2)
    # within 20% of baseline: ok
    assert check_result(_payload(2.5, 1.0), baseline) == []
    # churn fell >20% below baseline
    fails = check_result(_payload(2.2, 1.0), baseline)
    assert len(fails) == 1 and "event_churn" in fails[0]
    # fire fell >20% below baseline
    fails = check_result(_payload(2.9, 0.9), baseline)
    assert len(fails) == 1 and "event_fire" in fails[0]


def test_committed_baseline_gates_current_schema():
    baseline = load_baseline("benchmarks/BENCH_baseline.json")
    assert baseline["schema"] == perf.SCHEMA_VERSION
    # a healthy result passes the committed gate
    assert check_result(_payload(3.0, 1.2), baseline) == []


def test_cli_wiring():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["bench", "--quick", "--out", "x.json",
         "--check", "benchmarks/BENCH_baseline.json"])
    assert args.command == "bench"
    assert args.quick
    assert args.check == "benchmarks/BENCH_baseline.json"
