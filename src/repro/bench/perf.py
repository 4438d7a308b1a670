"""Microbenchmarks for the event core, checkpoints and the lint.

The suite emits ``BENCH_perf.json`` (see ``docs/PERF.md`` for the
schema) and can gate CI against a committed baseline.  Two kinds of
numbers are reported:

* **speedups** — the live heap :class:`~repro.sim.core.Simulator`, which
  compacts tombstones, measured against the frozen, uncompacted heap
  loop (:class:`~repro.sim.reference.HeapSimulator`) *on the same
  machine, in the same process*.  Ratios cancel out host speed, so
  they are the numbers CI gates on.
* **absolutes** (events/sec, checkpoint and lint milliseconds) —
  machine-dependent, recorded for the PR-over-PR trajectory only.

Receiver throughput, set-up cost and per-layer host time are measured
by the repository benchmark under ``perfbench/`` instead.

The churn workload is the simulator-level shape of a Metronome
deployment: a steady tick of near-future work (sleep expiries) plus a
fan of long-horizon watchdog timers that are almost always cancelled
and re-armed (the paper's backup timeout).  In the frozen heap every
cancelled watchdog stays buried until its far-future expiry, so the
heap grows without bound; the live core drops tombstones once they
outnumber live entries, which is where the large speedup comes from.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable, Dict, List, Optional

SCHEMA_VERSION = 1

#: regression tolerance against the committed baseline (CI gate)
RATIO_TOLERANCE = 0.8
#: hard floor for the churn speedup in full mode (the headline claim)
CHURN_SPEEDUP_FLOOR = 3.0
#: softer floor for the short quick-mode run (more variance)
CHURN_SPEEDUP_FLOOR_QUICK = 2.0


# --------------------------------------------------------------------- #
# event-core microbenchmarks
# --------------------------------------------------------------------- #


def _churn_workload(sim, iters: int, watchdogs: int,
                    tick_ns: int = 5_000,
                    watchdog_ns: int = 10_000_000_000) -> int:
    """Tick every ``tick_ns``; each tick cancels and re-arms ``watchdogs``
    far-future timers (the T_S re-arm / backup-watchdog pattern).

    Returns the number of callbacks actually fired.
    """
    state = {"n": 0, "wd": []}

    def noop() -> None:
        pass

    def tick() -> None:
        n = state["n"] = state["n"] + 1
        for handle in state["wd"]:
            handle.cancel()
        if n < iters:
            state["wd"] = [
                sim.call_after(watchdog_ns, noop) for _ in range(watchdogs)
            ]
            sim.call_after(tick_ns, tick)

    sim.call_after(tick_ns, tick)
    sim.run()
    return state["n"]


def _fire_workload(sim, iters: int, chains: int = 32,
                   tick_ns: int = 5_000) -> int:
    """Pure schedule→fire, no cancels: ``chains`` interleaved 5 µs tick
    chains, the shape of M metronome threads plus per-queue timers all
    live at once (a single chain would just benchmark a 1-element heap).
    """
    state = {"n": 0}

    def tick() -> None:
        n = state["n"] = state["n"] + 1
        if n < iters:
            sim.call_after(tick_ns, tick)

    for i in range(chains):
        sim.call_after(tick_ns + i * 157, tick)
    sim.run()
    return state["n"]


def _time_events(sim_factory: Callable[[], object],
                 workload: Callable[..., int], *args,
                 repeats: int = 2) -> float:
    """Events fired per wall-clock second, best of ``repeats`` runs.

    Best-of damps scheduler noise, which matters because the CI gate
    reads the *ratio* of two of these measurements.
    """
    best = 0.0
    for _ in range(repeats):
        sim = sim_factory()
        t0 = time.perf_counter()
        fired = workload(sim, *args)
        eps = fired / (time.perf_counter() - t0)
        if eps > best:
            best = eps
    return best


def bench_event_churn(quick: bool) -> Dict[str, float]:
    from repro.sim.core import Simulator
    from repro.sim.reference import HeapSimulator

    iters = 30_000 if quick else 100_000
    watchdogs = 16
    new_eps = _time_events(Simulator, _churn_workload, iters, watchdogs)
    old_eps = _time_events(HeapSimulator, _churn_workload, iters, watchdogs)
    return {
        "iters": iters,
        "watchdogs_per_tick": watchdogs,
        "events_per_sec": round(new_eps, 1),
        "heap_events_per_sec": round(old_eps, 1),
        "speedup": round(new_eps / old_eps, 3),
    }


def bench_event_fire(quick: bool) -> Dict[str, float]:
    from repro.sim.core import Simulator
    from repro.sim.reference import HeapSimulator

    iters = 100_000 if quick else 300_000
    new_eps = _time_events(Simulator, _fire_workload, iters)
    old_eps = _time_events(HeapSimulator, _fire_workload, iters)
    return {
        "iters": iters,
        "events_per_sec": round(new_eps, 1),
        "heap_events_per_sec": round(old_eps, 1),
        "speedup": round(new_eps / old_eps, 3),
    }


# --------------------------------------------------------------------- #
# checkpoint overhead
# --------------------------------------------------------------------- #


def bench_checkpoint(quick: bool) -> Dict[str, object]:
    """Cost of the sim-state checkpoint at fig7-like scale.

    Reports the capture time (pure state walk over a live Metronome
    machine), the serialized state size, the JSON round-trip time, and
    the verify time on a freshly replayed machine — the restore path's
    fingerprint comparison.  Never gated: checkpointing is a debugging
    and resilience surface, the numbers are trajectory data.
    """
    from repro import config
    from repro.harness.experiment import run_metronome
    from repro.sim.snapshot import MachineState, verify
    from repro.sim.units import MS

    duration_ms = 8 if quick else 20
    t_ck = (duration_ms // 2) * MS
    reps = 3 if quick else 5
    timings: Dict[str, float] = {}

    def time_capture(machine, _state) -> None:
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            machine.snapshot(label="bench")
            best = min(best, time.perf_counter() - t0)
        timings["capture_ms"] = best * 1e3

    cfg = config.SimConfig(seed=2020)
    res = run_metronome(2_000_000, duration_ms=duration_ms, cfg=cfg,
                        num_threads=2, cores=[0, 1],
                        checkpoint_at_ns=t_ck, at_checkpoint=time_capture)
    state = res.checkpoint

    t0 = time.perf_counter()
    blob = json.dumps(state.to_dict())
    round_tripped = MachineState.from_dict(json.loads(blob))
    serialize_ms = (time.perf_counter() - t0) * 1e3
    round_trip_ok = not state.diff(round_tripped)

    def time_verify(machine, _state) -> None:
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            mismatches = verify(machine, state)
            best = min(best, time.perf_counter() - t0)
        timings["verify_ms"] = best * 1e3
        timings["verify_ok"] = not mismatches

    run_metronome(2_000_000, duration_ms=duration_ms,
                  cfg=config.SimConfig(seed=2020),
                  num_threads=2, cores=[0, 1],
                  checkpoint_at_ns=t_ck, at_checkpoint=time_verify)
    return {
        "duration_ms": duration_ms,
        "checkpoint_at_ms": t_ck // MS,
        "capture_ms": round(timings["capture_ms"], 3),
        "state_kb": round(state.size_bytes() / 1024, 2),
        "json_round_trip_ms": round(serialize_ms, 3),
        "verify_ms": round(timings["verify_ms"], 3),
        "round_trip_ok": bool(round_trip_ok and timings["verify_ok"]),
    }


# --------------------------------------------------------------------- #
# whole-tree lint cost
# --------------------------------------------------------------------- #


def bench_lint(quick: bool) -> Dict[str, object]:
    """Wall-clock of the interprocedural whole-tree lint, cold vs
    summary-cached.

    The cold run parses every module, runs the file rules, and extracts
    effect facts; the warm run replays all of that from the
    content-hashed cache and pays only for the call-graph link plus the
    program rules.  The warm/cold ratio is the cache's value and the
    link step's cost, PR over PR.  Never gated: both are
    machine-dependent trajectory data.
    """
    import shutil
    import tempfile

    import repro
    from repro.lint.cache import SummaryCache
    from repro.lint.engine import LintConfig, run_lint

    # src/repro/__init__.py -> src/repro -> src -> repo root
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__))))
    cfg = LintConfig(root=root)
    cache_dir = tempfile.mkdtemp(prefix="bench-lint-cache-")
    try:
        cache = SummaryCache(cache_dir)
        t0 = time.perf_counter()
        cold_result = run_lint(cfg, cache=cache)
        cold = time.perf_counter() - t0

        reps = 1 if quick else 3
        warm = float("inf")
        for _ in range(reps):
            cache = SummaryCache(cache_dir)
            t0 = time.perf_counter()
            warm_result = run_lint(cfg, cache=cache)
            warm = min(warm, time.perf_counter() - t0)
        hit_rate = cache.hits / max(1, cache.hits + cache.misses)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "files": cold_result.files,
        "findings": len(cold_result.findings) + len(warm_result.findings),
        "cold_s": round(cold, 3),
        "warm_s": round(warm, 3),
        "warm_over_cold": round(warm / cold, 3) if cold > 0 else 0.0,
        "cache_hit_rate": round(hit_rate, 3),
    }


# --------------------------------------------------------------------- #
# suite driver + baseline gate
# --------------------------------------------------------------------- #


def run_benches(quick: bool = False,
                progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Run the full suite and return the ``BENCH_perf.json`` payload."""
    say = progress or (lambda _msg: None)
    say("event churn (live heap vs frozen heap)...")
    churn = bench_event_churn(quick)
    say(f"  {churn['events_per_sec']:,.0f} ev/s, speedup {churn['speedup']:.2f}x")
    say("event fire (pure schedule->fire chain)...")
    fire = bench_event_fire(quick)
    say(f"  {fire['events_per_sec']:,.0f} ev/s, speedup {fire['speedup']:.2f}x")
    say("checkpoint (snapshot capture / round-trip / verify)...")
    checkpoint = bench_checkpoint(quick)
    say(f"  capture {checkpoint['capture_ms']:.1f} ms, "
        f"{checkpoint['state_kb']:.0f} KB, "
        f"verify {checkpoint['verify_ms']:.1f} ms")
    say("lint (whole-tree interprocedural, cold vs cached)...")
    lint = bench_lint(quick)
    say(f"  cold {lint['cold_s']:.2f} s, warm {lint['warm_s']:.2f} s "
        f"({lint['warm_over_cold']:.2f}x)")
    return {
        "schema": SCHEMA_VERSION,
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "unix_time": round(time.time(), 1),
        "benches": {
            "event_churn": churn,
            "event_fire": fire,
            "checkpoint": checkpoint,
            "lint": lint,
        },
    }


def load_baseline(path: str) -> Dict:
    with open(path) as fh:
        return json.load(fh)


def check_result(result: Dict, baseline: Optional[Dict] = None) -> List[str]:
    """Regression gate.  Returns human-readable failures (empty = pass).

    Only machine-independent ratios are gated: the churn speedup has a
    hard floor (the PR's headline claim) and both speedups must stay
    within ``RATIO_TOLERANCE`` of the committed baseline.  Absolute
    events/sec and milliseconds are trajectory data, never gated.
    """
    failures: List[str] = []
    benches = result["benches"]
    quick = result.get("mode") == "quick"
    floor = CHURN_SPEEDUP_FLOOR_QUICK if quick else CHURN_SPEEDUP_FLOOR
    churn = benches["event_churn"]["speedup"]
    if churn < floor:
        failures.append(
            f"event_churn speedup {churn:.2f}x below the {floor:.1f}x floor"
        )
    if baseline is not None:
        base = baseline["benches"]
        for name in ("event_churn", "event_fire"):
            if name not in base:
                continue
            ref = base[name]["speedup"]
            got = benches[name]["speedup"]
            if got < ref * RATIO_TOLERANCE:
                failures.append(
                    f"{name} speedup {got:.2f}x regressed >20% against "
                    f"baseline {ref:.2f}x"
                )
    return failures
