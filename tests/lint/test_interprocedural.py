"""Unit tests for the call graph, summaries, and cross-file rules.

Each case builds a tiny multi-module tree on disk and runs the real
``run_lint`` over it, so resolution (imports, methods, constructors,
nested defs), witness propagation, and the summary-aware L-rules are
exercised exactly as in a whole-tree run.
"""

from __future__ import annotations

import os
import textwrap
from typing import Dict, List

from repro.lint.engine import Finding, LintConfig, run_lint


def _lint_tree(tmp_path, files: Dict[str, str],
               select=()) -> List[Finding]:
    for relpath, source in files.items():
        full = tmp_path / relpath
        full.parent.mkdir(parents=True, exist_ok=True)
        full.write_text(textwrap.dedent(source))
    pkg = tmp_path / "src" / "repro"
    if pkg.is_dir():
        for dirpath, _dirs, names in os.walk(pkg):
            if "__init__.py" not in names:
                (tmp_path / dirpath / "__init__.py").write_text("")
    cfg = LintConfig(root=str(tmp_path), select=tuple(select))
    return run_lint(cfg).findings


def _ids(findings) -> List[str]:
    return sorted({f.rule_id for f in findings})


# ---------------------------------------------------------------------- #
# summary-aware lock rules
# ---------------------------------------------------------------------- #


def test_helper_release_pairs_callers_acquire(tmp_path):
    """try_acquire here, release in a called helper: no L001."""
    findings = _lint_tree(tmp_path, {
        "src/repro/kernel/helpers.py": """
            def unlock(sq):
                sq.lock.release()
        """,
        "src/repro/kernel/drain.py": """
            from repro.kernel.helpers import unlock

            def drain(sq, kt):
                if sq.lock.try_acquire(kt):
                    n = sq.queue.rx_burst(32)
                    unlock(sq)
                    return n
                return 0
        """,
    }, select=("L001", "L002", "L003"))
    assert findings == []


def test_helper_release_on_some_paths_leaks(tmp_path):
    """A helper that releases only on one branch leaves MAYBE behind."""
    findings = _lint_tree(tmp_path, {
        "src/repro/kernel/helpers.py": """
            def maybe_unlock(sq, ok):
                if ok:
                    sq.lock.release()
        """,
        "src/repro/kernel/drain.py": """
            from repro.kernel.helpers import maybe_unlock

            def drain(sq, kt, ok):
                if sq.lock.try_acquire(kt):
                    maybe_unlock(sq, ok)
        """,
    }, select=("L001", "L002", "L003"))
    assert _ids(findings) == ["L001"]
    assert "some path" in findings[0].message


def test_acquire_helper_leak_is_l003_with_chain(tmp_path):
    findings = _lint_tree(tmp_path, {
        "src/repro/kernel/drain.py": """
            def grab(sq, kt):
                return sq.lock.try_acquire(kt)

            def drain(sq, kt):
                if grab(sq, kt):
                    return sq.queue.rx_burst(32)
                return None
        """,
    }, select=("L001", "L002", "L003"))
    assert _ids(findings) == ["L003"]
    (leak,) = findings
    assert leak.path == "src/repro/kernel/drain.py"
    assert leak.chain, "L003 must carry the helper call chain"
    assert "grab" in leak.chain[0][2]
    # the helper itself is clean: its caller owns the release
    assert all(f.rule_id != "L001" for f in findings)


def test_acquire_helper_returning_a_flag_is_clean(tmp_path):
    """``ok = x.try_acquire(); return ok`` hands the lock to the caller
    as ``return x.try_acquire()`` does: the helper is clean, and the
    caller's leak is L003."""
    findings = _lint_tree(tmp_path, {
        "src/repro/kernel/drain.py": """
            def grab(sq, kt):
                got = sq.lock.try_acquire(kt)
                return got

            def drain(sq, kt):
                if grab(sq, kt):
                    return sq.queue.rx_burst(32)
                return None
        """,
    }, select=("L001", "L002", "L003"))
    assert [(f.rule_id, f.line) for f in findings] == [("L003", 7)]


def test_acquire_helper_with_release_on_all_paths_is_clean(tmp_path):
    findings = _lint_tree(tmp_path, {
        "src/repro/kernel/drain.py": """
            def grab(sq, kt):
                return sq.lock.try_acquire(kt)

            def drain(sq, kt):
                if grab(sq, kt):
                    n = sq.queue.rx_burst(32)
                    sq.lock.release()
                    return n
                return None
        """,
    }, select=("L001", "L002", "L003"))
    assert findings == []


# ---------------------------------------------------------------------- #
# resolution and witness chains
# ---------------------------------------------------------------------- #


def test_wallclock_chain_through_alias_and_method(tmp_path):
    """D005 fires at the boundary call with the full witness chain:
    sim code -> allowlisted module function -> method -> time.time."""
    findings = _lint_tree(tmp_path, {
        "src/repro/campaign/clock.py": """
            import time

            class Stopwatch:
                def now(self):
                    return time.time()

            def wall_now():
                return Stopwatch().now()
        """,
        "src/repro/kernel/tick.py": """
            from repro.campaign import clock

            def tick():
                return clock.wall_now()
        """,
    }, select=("D005",))
    assert _ids(findings) == ["D005"]
    (f,) = findings
    assert f.path == "src/repro/kernel/tick.py"
    hops = [hop[0] for hop in f.chain]
    assert hops[0] == "src/repro/kernel/tick.py"
    assert hops[-1] == "src/repro/campaign/clock.py"
    assert "time" in f.chain[-1][2]


def test_d006_flags_wrapper_call_not_whole_chain(tmp_path):
    """Only the immediate caller of the raw-drawing wrapper is flagged;
    callers further up do not cascade."""
    findings = _lint_tree(tmp_path, {
        "src/repro/kernel/noise.py": """
            import random

            def draw():
                return random.random()

            def wrapped():
                return draw()

            def far():
                return wrapped()
        """,
    }, select=("D006",))
    assert len(findings) == 1
    (f,) = findings
    assert f.rule_id == "D006"
    # the call *into* draw() (inside wrapped) is the boundary
    assert "draw" in f.message


def test_observer_transitive_write_and_draw(tmp_path):
    findings = _lint_tree(tmp_path, {
        "src/repro/kernel/mut.py": """
            def poke(q):
                q.seen = True

            def sample(streams):
                return streams.stream("probe.x").random()
        """,
        "src/repro/metrics/watch.py": """
            from repro.kernel.mut import poke, sample

            def observe(q, streams):
                poke(q)
                return sample(streams)
        """,
    }, select=("P003", "P004"))
    assert _ids(findings) == ["P003", "P004"]
    for f in findings:
        assert f.path == "src/repro/metrics/watch.py"
        assert f.chain and f.chain[-1][0] == "src/repro/kernel/mut.py"


def test_constructed_object_writes_are_not_perturbation(tmp_path):
    """Writes to an object the function built itself stay exempt all
    the way through the checkpoint closure (freshness tracking)."""
    findings = _lint_tree(tmp_path, {
        "src/repro/sim/snapshot.py": """
            class Acc:
                def __init__(self):
                    self.items = []

                def feed(self, v):
                    self.items.append(v)

            def capture(machine):
                acc = Acc()
                acc.feed(machine.t)
                return acc.items

            def verify(machine, state):
                return capture(machine) == state
        """,
    }, select=("C001", "C002"))
    assert findings == []


def test_checkpoint_reaches_mutating_method_via_cha(tmp_path):
    """An untyped receiver still reaches every in-tree method of that
    name — the structural form of the peek/read accessor split."""
    findings = _lint_tree(tmp_path, {
        "src/repro/kernel/meter.py": """
            class Meter:
                def read_energy(self):
                    self.closed = True
                    return 1.0
        """,
        "src/repro/sim/snapshot.py": """
            def capture(machine):
                return {"power": machine.power.read_energy()}

            def verify(machine, state):
                return capture(machine) == state
        """,
    }, select=("C001", "C002"))
    assert _ids(findings) == ["C001"]
    (f,) = findings
    assert f.path == "src/repro/kernel/meter.py"
    assert f.chain and f.chain[0][0] == "src/repro/sim/snapshot.py"


def test_generator_rules_scope_to_generator_module(tmp_path):
    files = {
        "src/repro/traffic/generators.py": """
            STATE = {}

            def gen(spec, seed):
                STATE[seed] = spec
                return spec

            def good(streams):
                return streams.stream("traffic.gen.x").random()

            def bad(streams):
                return streams.stream("net.jitter").random()
        """,
        "src/repro/kernel/elsewhere.py": """
            COUNT = {}

            def tick(streams):
                COUNT["n"] = 1
                return streams.stream("net.jitter").random()
        """,
    }
    findings = _lint_tree(tmp_path, files, select=("G001", "G002"))
    assert _ids(findings) == ["G001", "G002"]
    assert all(f.path == "src/repro/traffic/generators.py"
               for f in findings)
    g2 = [f for f in findings if f.rule_id == "G002"]
    assert len(g2) == 1 and g2[0].line != 0
    assert "net." in g2[0].message
