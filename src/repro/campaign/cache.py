"""Content-addressed result cache for campaign tasks.

A task's cache key is ``sha256(spec identity + code fingerprint)``:

* **spec identity** — the task's canonical JSON (figure, scenario,
  params, seed; see :meth:`~repro.campaign.spec.TaskSpec.canonical`);
* **code fingerprint** — a hash of the scenario *function's* source
  combined with a digest of every other ``repro`` source file.  The
  scenarios module itself contributes its module-level residue (source
  minus the registered function bodies) to the package digest, so the
  constants and helpers scenarios share are covered too.

Editing one scenario's body therefore invalidates only that figure's
tasks, while touching anything shared — the engine underneath (kernel
model, NIC, metrics, ...) or module-level code in the scenarios file —
invalidates everything: the conservative direction.
Entries live as flat JSON files under ``benchmarks/results/cache/`` and
are written atomically, so an interrupted campaign never leaves a
truncated entry behind (corrupt files read as misses).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.campaign.spec import TaskSpec, json_normalize

#: path fragments excluded from the byte-for-byte package walk: the
#: scenarios module is split instead — registered function bodies are
#: fingerprinted per-function (so one scenario edit does not invalidate
#: every figure's cache) while the module-level residue joins the
#: package digest via :func:`_scenarios_residue`.
_PER_SCENARIO_FILES = ("harness" + os.sep + "scenarios.py",)

_package_digest: Optional[str] = None


def _scenarios_residue() -> bytes:
    """The scenarios module's source minus registered function bodies.

    Constants and helpers defined at module level (``LINE``, shared
    closures, the registry table itself) are dependencies of *every*
    scenario, so they belong in the package digest — otherwise editing
    them would silently serve stale cache entries.  A function whose
    source cannot be located in the module (e.g. a test monkeypatching
    a toy scenario into ``SCENARIOS``) simply leaves the module text
    untouched, which errs toward invalidation.
    """
    from repro.harness import scenarios as module

    try:
        src = inspect.getsource(module)
    except (OSError, TypeError):
        return b""
    for fn in module.SCENARIOS.values():
        try:
            body = inspect.getsource(fn)
        except (OSError, TypeError):
            continue
        src = src.replace(body, "", 1)
    return src.encode()


def package_digest() -> str:
    """Digest of every ``repro`` source file, with the scenarios module
    contributing only its module-level residue (per-function bodies are
    hashed separately by :func:`scenario_fingerprint`).

    Computed once per process; campaigns are short-lived so there is no
    staleness window worth tracking.
    """
    global _package_digest
    if _package_digest is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        h = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for fname in sorted(filenames):
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                rel = os.path.relpath(path, root)
                if rel in _PER_SCENARIO_FILES:
                    continue
                h.update(rel.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
        h.update(_scenarios_residue())
        _package_digest = h.hexdigest()
    return _package_digest


def scenario_fingerprint(scenario: str) -> str:
    """Code fingerprint for one scenario: its own source + the package."""
    from repro.harness.scenarios import SCENARIOS

    fn = SCENARIOS[scenario]
    src = inspect.getsource(fn)
    h = hashlib.sha256()
    h.update(package_digest().encode())
    h.update(src.encode())
    return h.hexdigest()


def task_key(spec: TaskSpec, fingerprint: Optional[str] = None) -> str:
    """The task's content address (64 hex chars)."""
    if fingerprint is None:
        fingerprint = scenario_fingerprint(spec.scenario)
    h = hashlib.sha256()
    h.update(spec.canonical().encode())
    h.update(b":")
    h.update(fingerprint.encode())
    return h.hexdigest()


@dataclass
class CacheEntry:
    record: Any
    elapsed_s: float


class ResultCache:
    """Flat on-disk store of task records, one JSON file per key."""

    def __init__(self, root: str):
        self.root = root

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def get(self, spec: TaskSpec,
            fingerprint: Optional[str] = None) -> Optional[CacheEntry]:
        path = self._path(task_key(spec, fingerprint))
        try:
            with open(path) as fh:
                entry = json.load(fh)
            record = entry["record"]
            elapsed = float(entry["elapsed_s"])
        except OSError:
            return None
        except (ValueError, KeyError, TypeError):
            # the file opened but does not parse as an entry — it can
            # only get in the way (``put`` skips existing paths), so
            # evict it and let a fresh result take the slot
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        return CacheEntry(record=record, elapsed_s=elapsed)

    def put(self, spec: TaskSpec, record: Any, elapsed_s: float,
            fingerprint: Optional[str] = None) -> str:
        """Store a record under its content address.

        Safe against concurrent writers — e.g. two shard campaigns
        sharing one cache dir: each writes its own ``mkstemp`` temp
        file and publishes with atomic ``os.replace``, so readers never
        see a partial entry and the last writer simply wins.  The key
        is content-addressed (spec + code fingerprint), so a colliding
        writer is computing the *same* deterministic record and an
        already-present entry can be kept as-is.
        """
        from repro.campaign.artifacts import atomic_write_text

        key = task_key(spec, fingerprint)
        path = self._path(key)
        if os.path.exists(path):
            return key
        body = json.dumps(
            {
                "spec": spec.to_dict(),
                "record": json_normalize(record),
                "elapsed_s": elapsed_s,
            },
            sort_keys=True,
        )
        atomic_write_text(path, body + "\n")
        return key

    def stats(self) -> Dict[str, Any]:
        entries = 0
        size = 0
        try:
            with os.scandir(self.root) as it:
                for e in it:
                    if e.is_file() and e.name.endswith(".json"):
                        entries += 1
                        size += e.stat().st_size
        except OSError:
            pass
        return {"dir": self.root, "entries": entries, "bytes": size}
