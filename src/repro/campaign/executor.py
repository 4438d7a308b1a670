"""The campaign executor: sharded, cached, retrying execution.

Tasks run across N worker processes (``ProcessPoolExecutor``).  Each
task is independent — a scenario call at one grid point with an
explicit seed — so execution order cannot affect results; the merge
step reassembles records in serial order and the output is
byte-identical to running the sweep in one process (asserted by
``tests/campaign/test_campaign_determinism.py``).

**Failure taxonomy.**  A failed attempt is classified and handled by
class:

* ``error`` — the task raised; deterministic unless the scenario
  consults the environment, so it is retried on a fresh pool up to
  ``retries`` times and then quarantined;
* ``timeout`` — the attempt exceeded ``timeout_s``; the worker
  underneath may be hung, so its slot stays pinned for the rest of the
  wave and the pool is torn down (processes terminated) at wave end;
* ``crash`` — the worker process died (SIGKILL, OOM, segfault), which
  ``ProcessPoolExecutor`` reports by poisoning *every* in-flight future
  with ``BrokenProcessPool``.  With exactly one task in flight the
  culprit is known and the attempt is charged; with several in flight
  the victims are indistinguishable from the culprit, so nobody is
  charged — instead every involved task re-runs **isolated** (its own
  single-worker pool) where a crash has exactly one possible culprit.
  Isolation guarantees termination: innocents succeed, a genuinely
  poisoned task accumulates charged attempts and is quarantined.

A task is deterministic, so a retry runs at once on the next wave's
fresh pool.  A task that exhausts its attempts is **quarantined**:
recorded with its failure history, excluded from the figure merge, and
reported — the campaign completes with partial results and a non-zero
exit instead of aborting the whole grid.

Tasks are submitted to the pool at most ``workers`` at a time (the
backlog stays in the executor's own queue), so a submitted future is
genuinely executing and its timeout clock is fair — over-submitting
would let ``ProcessPoolExecutor``'s call-queue buffer mark queued
futures as running and time them out without them ever executing.  A
hung worker pins its slot for the rest of the wave; if every slot is
pinned, the still-queued tasks roll over to the next wave's fresh pool
uncharged (they never ran), so a systematic hang occupying every worker
degrades into bounded retries instead of an infinite poll.

With a :class:`~repro.campaign.cache.ResultCache` attached, tasks whose
content address (spec + code fingerprint) already has an entry are
served from disk without touching a worker, and every success is
published there (atomically, fsynced) before the campaign moves on.
The cache is the campaign's only record of progress: re-running a
SIGKILLed campaign re-executes only the tasks it had not finished, and
an unsharded run over the cache its shards filled assembles them.
Quarantined tasks are not stored, so a re-run retries them.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import config
from repro.campaign.cache import ResultCache, scenario_fingerprint
from repro.campaign.spec import FigureSpec, TaskSpec, json_normalize

#: how often the wave loop polls futures / repaints the progress line
_POLL_S = 0.2

#: the failure classes the executor distinguishes
FAILURE_CLASSES = ("error", "timeout", "crash")


class InjectedFailure(RuntimeError):
    """Raised by a task selected via ``fail_tasks`` (test/CI hook)."""


def execute_task(spec: TaskSpec, fail_tasks: Optional[str] = None) -> Any:
    """Run one task in the current process and return its record.

    The record is JSON-normalized so the in-process, subprocess, and
    cached paths are indistinguishable downstream.
    """
    from repro.harness.scenarios import SCENARIOS

    if fail_tasks and fail_tasks in (spec.figure, spec.scenario):
        raise InjectedFailure(f"injected failure for {spec.label()}")
    fn = SCENARIOS[spec.scenario]
    record = fn(seed=spec.seed, **spec.params)
    return json_normalize(record)


def _worker(spec_dict: Dict, fail_tasks: Optional[str]) -> Tuple[Any, float]:
    """Subprocess entry point: returns (record, elapsed_s)."""
    spec = TaskSpec.from_dict(spec_dict)
    t0 = time.perf_counter()
    record = execute_task(spec, fail_tasks=fail_tasks)
    return record, time.perf_counter() - t0


@dataclass
class TaskOutcome:
    """What happened to one task, however it was resolved."""

    spec: TaskSpec
    record: Any = None
    elapsed_s: float = 0.0
    attempts: int = 0
    from_cache: bool = False
    error: Optional[str] = None
    #: last failure class seen (``error``/``timeout``/``crash``); None
    #: for tasks that never failed an attempt
    failure_class: Optional[str] = None
    #: True when the task exhausted its attempts and was excluded from
    #: the merge (the campaign still completes, with non-zero exit)
    quarantined: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class CampaignResult:
    """All task outcomes plus run-level accounting."""

    outcomes: List[TaskOutcome] = field(default_factory=list)
    figures: Tuple[str, ...] = ()
    wall_s: float = 0.0
    workers: int = 0
    scale: float = 1.0
    seed: int = config.DEFAULT_SEED
    #: this invocation's slice of the grid (``--shard i/N``)
    shard: Tuple[int, int] = (1, 1)

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.from_cache)

    @property
    def cache_misses(self) -> int:
        return sum(1 for o in self.outcomes if not o.from_cache)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / len(self.outcomes) if self.outcomes else 0.0

    @property
    def failures(self) -> List[TaskOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def quarantined(self) -> List[TaskOutcome]:
        return [o for o in self.outcomes if o.quarantined]

    def record_for(self, figure: str) -> Optional[List]:
        """The figure's merged record (serial order), or ``None`` if any
        of its tasks failed."""
        tasks = [o for o in self.outcomes if o.spec.figure == figure]
        if not tasks or any(not o.ok for o in tasks):
            return None
        merged: List = []
        for o in sorted(tasks, key=lambda o: o.spec.index):
            merged.extend(o.record)
        return merged

    def figure_outcomes(self, figure: str) -> List[TaskOutcome]:
        return [o for o in self.outcomes if o.spec.figure == figure]

    def quarantine_report(self) -> str:
        """Human-readable list of quarantined tasks (empty string when
        the whole grid resolved)."""
        quarantined = self.quarantined
        if not quarantined:
            return ""
        lines = [f"quarantined {len(quarantined)} task(s):"]
        for o in quarantined:
            lines.append(
                f"  {o.spec.label():12s} after {o.attempts} attempt(s) "
                f"[{o.failure_class or '?'}] {o.error}"
            )
        return "\n".join(lines)

    def summary(self) -> Dict[str, Any]:
        """The ``BENCH_campaign.json`` body."""
        return {
            "wall_s": self.wall_s,
            "workers": self.workers,
            "scale": self.scale,
            "seed": self.seed,
            "shard": list(self.shard),
            "figures": list(self.figures),
            "tasks_total": len(self.outcomes),
            "failures": len(self.failures),
            "quarantined": len(self.quarantined),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.cache_hit_rate,
            },
            "tasks": [
                {
                    "figure": o.spec.figure,
                    "index": o.spec.index,
                    "scenario": o.spec.scenario,
                    "elapsed_s": o.elapsed_s,
                    "attempts": o.attempts,
                    "from_cache": o.from_cache,
                    "error": o.error,
                    "failure_class": o.failure_class,
                    "quarantined": o.quarantined,
                }
                for o in self.outcomes
            ],
        }


class _Progress:
    """A single live line on stderr (repainted in a tty, quiet runs
    print only the final state)."""

    def __init__(self, enabled: bool, total: int):
        self.enabled = enabled
        self.total = total
        self.tty = enabled and sys.stderr.isatty()

    def update(self, done: int, cached: int, running: int,
               failed: int) -> None:
        if not self.tty:
            return
        sys.stderr.write(
            f"\rcampaign: {done}/{self.total} tasks done "
            f"({cached} cached, {running} running, {failed} failed) "
        )
        sys.stderr.flush()

    def finish(self, done: int, cached: int, failed: int,
               wall_s: float) -> None:
        if not self.enabled:
            return
        if self.tty:
            sys.stderr.write("\r\x1b[K")
        sys.stderr.write(
            f"campaign: {done}/{self.total} tasks in {wall_s:.1f}s "
            f"({cached} cached, {failed} failed)\n"
        )
        sys.stderr.flush()


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Best-effort kill of a pool that may hold hung workers.

    The process dict must be captured *before* ``shutdown()``, which
    drops the pool's reference to it — otherwise hung workers survive,
    their work items never resolve, and the pool's manager thread
    (non-daemon) blocks interpreter exit forever.
    """
    procs = dict(getattr(pool, "_processes", None) or {})
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs.values():
        try:
            proc.terminate()
        except Exception:
            pass


def run_tasks(
    specs: Sequence[TaskSpec],
    *,
    workers: int = 4,
    cache: Optional[ResultCache] = None,
    timeout_s: float = 300.0,
    retries: int = 2,
    fail_tasks: Optional[str] = None,
    progress: bool = False,
) -> List[TaskOutcome]:
    """Execute ``specs`` and return one outcome per spec, same order.

    ``workers=0`` runs everything serially in the current process
    (no per-task timeout there — nothing to kill).  ``retries`` is the
    number of *re*-attempts after the first failure or timeout.
    """
    t0 = time.perf_counter()
    # everything is keyed by the spec's *position* in ``specs`` — specs
    # are not required to be unique, and keying by identity would let
    # duplicates share (and inflate) one attempts counter
    outcomes: Dict[int, TaskOutcome] = {}
    # one source hash per scenario, not per task
    fingerprints = {
        name: scenario_fingerprint(name)
        for name in dict.fromkeys(s.scenario for s in specs)
    } if cache is not None else {}
    #: per-position class of the last failed attempt
    last_class: Dict[int, str] = {}

    pending: List[Tuple[int, TaskSpec]] = []
    for pos, spec in enumerate(specs):
        entry = cache.get(spec, fingerprints[spec.scenario]) \
            if cache is not None else None
        if entry is not None:
            outcomes[pos] = TaskOutcome(
                spec=spec, record=entry.record, elapsed_s=entry.elapsed_s,
                from_cache=True)
        else:
            pending.append((pos, spec))

    attempts: Dict[int, int] = {pos: 0 for pos, _ in pending}
    prog = _Progress(progress, len(specs))

    def _done_counts() -> Tuple[int, int, int]:
        done = len(outcomes)
        cached = sum(1 for o in outcomes.values() if o.from_cache)
        failed = sum(1 for o in outcomes.values() if not o.ok)
        return done, cached, failed

    def _store_success(pos: int, spec: TaskSpec, record: Any,
                       elapsed: float) -> None:
        outcomes[pos] = TaskOutcome(
            spec=spec, record=record, elapsed_s=elapsed,
            attempts=attempts[pos],
            failure_class=last_class.get(pos))
        if cache is not None:
            cache.put(spec, record, elapsed, fingerprints[spec.scenario])

    def _retry(pos: int, spec: TaskSpec, failure_class: str,
               error: str) -> bool:
        """Record a charged failed attempt: True if the task has
        attempts left, else it is quarantined."""
        last_class[pos] = failure_class
        if attempts[pos] <= retries:
            return True
        outcomes[pos] = TaskOutcome(
            spec=spec, attempts=attempts[pos], error=error,
            failure_class=failure_class, quarantined=True)
        return False

    if workers <= 0:
        for pos, spec in pending:
            while True:
                attempts[pos] += 1
                t_task = time.perf_counter()
                try:
                    record = execute_task(spec, fail_tasks=fail_tasks)
                except Exception as exc:
                    if _retry(pos, spec, "error",
                              f"{type(exc).__name__}: {exc}"):
                        continue
                    break
                _store_success(pos, spec, record,
                               time.perf_counter() - t_task)
                break
            done, cached, failed = _done_counts()
            prog.update(done, cached, 0, failed)
    else:
        todo = pending
        #: positions that must re-run isolated (crash suspects)
        isolate: set = set()
        while todo:
            # crash suspects first, each in its own single-worker pool:
            # a crash there has exactly one possible culprit, so the
            # attempt can be charged fairly (see module docstring)
            iso_batch = [(p, s) for p, s in todo if p in isolate]
            pool_batch = [(p, s) for p, s in todo if p not in isolate]
            next_round: List[Tuple[int, TaskSpec]] = []

            for pos, spec in iso_batch:
                attempts[pos] += 1
                failure: Optional[Tuple[str, str]] = None
                pool = ProcessPoolExecutor(max_workers=1)
                fut = pool.submit(_worker, spec.to_dict(), fail_tasks)
                try:
                    record, elapsed = fut.result(timeout=timeout_s)
                except FuturesTimeout:
                    failure = ("timeout",
                               f"timeout after {timeout_s:.0f}s (isolated)")
                    _terminate_pool(pool)
                except BrokenProcessPool:
                    failure = ("crash", "worker process died (isolated)")
                    pool.shutdown(wait=False, cancel_futures=True)
                except Exception as exc:
                    failure = ("error", f"{type(exc).__name__}: {exc}")
                    pool.shutdown(wait=True, cancel_futures=True)
                else:
                    pool.shutdown(wait=True)
                    isolate.discard(pos)
                    _store_success(pos, spec, record, elapsed)
                    continue
                if _retry(pos, spec, *failure):
                    next_round.append((pos, spec))
                done, cached, failed = _done_counts()
                prog.update(done, cached, 0, failed)

            if not pool_batch:
                todo = sorted(next_round, key=lambda e: e[0])
                continue

            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(pool_batch)))
            queue = deque(pool_batch)
            slots = min(workers, len(pool_batch))
            futures: Dict[Any, Tuple[int, TaskSpec]] = {}
            started: Dict[Any, float] = {}
            waiting: set = set()
            hung = False
            broken = False

            def _fill() -> None:
                # submit from the backlog, never more than one task per
                # free worker slot: an in-flight future is then really
                # executing, so its timeout clock starts honestly here
                # (ProcessPoolExecutor's call-queue buffer would flag
                # over-submitted futures as running while they sit
                # behind a hung worker, uncancellable and untimeable)
                nonlocal slots, broken
                while slots > 0 and queue and not broken:
                    pos, spec = queue.popleft()
                    try:
                        fut = pool.submit(_worker, spec.to_dict(),
                                          fail_tasks)
                    except Exception:
                        # the pool broke between waits; the task never
                        # started, so it rolls over uncharged
                        broken = True
                        queue.appendleft((pos, spec))
                        return
                    futures[fut] = (pos, spec)
                    started[fut] = time.monotonic()
                    waiting.add(fut)
                    slots -= 1

            _fill()
            while waiting:
                done_set, _ = wait(waiting, timeout=_POLL_S,
                                   return_when=FIRST_COMPLETED)
                now = time.monotonic()
                crashed: List[Tuple[int, TaskSpec]] = []
                for fut in done_set:
                    waiting.discard(fut)
                    slots += 1
                    pos, spec = futures[fut]
                    try:
                        record, elapsed = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        crashed.append((pos, spec))
                        continue
                    except Exception as exc:
                        attempts[pos] += 1
                        if _retry(pos, spec, "error",
                                  f"{type(exc).__name__}: {exc}"):
                            next_round.append((pos, spec))
                        continue
                    attempts[pos] += 1
                    _store_success(pos, spec, record, elapsed)
                if broken:
                    # the remaining in-flight futures are poisoned too
                    for fut in waiting:
                        crashed.append(futures[fut])
                    waiting.clear()
                    if len(crashed) == 1:
                        # one task in flight: the culprit is known
                        pos, spec = crashed[0]
                        attempts[pos] += 1
                        if _retry(pos, spec, "crash", "worker process died"):
                            next_round.append((pos, spec))
                    else:
                        # victims and culprit are indistinguishable:
                        # nobody is charged, everybody re-runs isolated
                        for pos, spec in crashed:
                            isolate.add(pos)
                            last_class[pos] = "crash"
                            next_round.append((pos, spec))
                    break
                for fut in list(waiting):
                    if now - started[fut] <= timeout_s:
                        continue
                    # stop waiting; the worker underneath may be hung,
                    # so its slot stays pinned for the rest of the wave
                    # and its process is dealt with at pool teardown
                    waiting.discard(fut)
                    hung = True
                    pos, spec = futures[fut]
                    attempts[pos] += 1
                    if _retry(pos, spec, "timeout",
                              f"timeout after {timeout_s:.0f}s"):
                        next_round.append((pos, spec))
                _fill()
                done, cached, failed = _done_counts()
                prog.update(done, cached, len(waiting), failed)
            # tasks still queued once every slot is pinned by a hung
            # worker (or the pool broke) can never start this wave:
            # roll them over to the next wave's fresh pool (never
            # submitted, so no attempt is charged).  Every submitted
            # future completes, times out, or is poisoned within
            # timeout_s, so the wave loop always drains.
            next_round.extend(queue)
            if hung or broken:
                _terminate_pool(pool)
            else:
                pool.shutdown(wait=True, cancel_futures=True)
            # retries run on the next wave's freshly created pool
            todo = sorted(next_round, key=lambda e: e[0])

    done, cached, failed = _done_counts()
    prog.finish(done, cached, failed, time.perf_counter() - t0)
    return [outcomes[pos] for pos in range(len(specs))]


def campaign_specs(
    figures: Optional[Sequence[str]] = None,
    *,
    scale: float = 1.0,
    seed: int = config.DEFAULT_SEED,
    registry: Optional[Mapping[str, FigureSpec]] = None,
) -> Tuple[Tuple[str, ...], List[TaskSpec]]:
    """Resolve a figure selection to ``(names, full task list)``.

    The task list is the campaign's canonical serial order — sharding
    partitions exactly this sequence.
    """
    from repro.campaign.registry import FIGURES

    registry = registry if registry is not None else FIGURES
    # dedupe, first occurrence wins: `--figures fig7,fig7` must not run
    # (and account) the same sweep twice
    names = tuple(dict.fromkeys(figures)) if figures else tuple(registry)
    specs: List[TaskSpec] = []
    for name in names:
        if name not in registry:
            known = ", ".join(registry)
            raise KeyError(f"unknown figure {name!r} (known: {known})")
        specs.extend(registry[name].tasks(scale=scale, seed=seed))
    return names, specs


def run_campaign(
    figures: Optional[Sequence[str]] = None,
    *,
    workers: int = 4,
    scale: float = 1.0,
    seed: int = config.DEFAULT_SEED,
    cache: Optional[ResultCache] = None,
    timeout_s: float = 300.0,
    retries: int = 2,
    fail_tasks: Optional[str] = None,
    progress: bool = False,
    registry: Optional[Mapping[str, FigureSpec]] = None,
    shard: Tuple[int, int] = (1, 1),
) -> CampaignResult:
    """Run a sweep over ``figures`` (default: every registered figure).

    Pure compute + cache: artifact emission is the caller's job (the
    CLI renders tables and writes the JSON surfaces; benches only want
    the records).

    ``shard=(i, N)`` runs the i-th of N deterministic partitions of the
    full task list (position modulo N), so CI matrices or multiple
    machines can split a grid; an unsharded run over the cache the
    shards filled then assembles it from cache hits.
    """
    names, all_specs = campaign_specs(
        figures, scale=scale, seed=seed, registry=registry)
    i, n = shard
    if not (1 <= i <= n):
        raise ValueError(f"shard must be (i, N) with 1 <= i <= N, got {shard}")
    specs = [s for pos, s in enumerate(all_specs) if pos % n == i - 1]
    t0 = time.perf_counter()
    outcomes = run_tasks(
        specs, workers=workers, cache=cache, timeout_s=timeout_s,
        retries=retries, fail_tasks=fail_tasks, progress=progress)
    return CampaignResult(
        outcomes=outcomes,
        figures=names,
        wall_s=time.perf_counter() - t0,
        workers=workers,
        scale=scale,
        seed=seed,
        shard=shard,
    )
