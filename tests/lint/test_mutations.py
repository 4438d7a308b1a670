"""Seeded *interprocedural* mutations: each cross-function rule family
must catch its bug class planted into a pristine copy of the tree.

The intraprocedural mutations live in ``test_smoke.py``; these ones are
specifically invisible to single-file analysis — the acquire and the
leak live in different functions, the observer's write happens two
calls down in another module, the checkpoint impurity hides behind an
untyped receiver.  Each case asserts the expected rule fires in the
expected file *and* (for the cross-function ones) that the finding
carries a non-empty witness chain; the no-mutation control pins the
false-positive rate at zero.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")


def _run_lint(root):
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=SRC + os.pathsep + REPO)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--root", root,
         "--format", "json", "--no-cache"],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300,
    )
    return proc.returncode, proc.stdout


def _copy_tree(tmp_path):
    root = tmp_path / "mutant"
    shutil.copytree(SRC, root / "src")
    return root


def _apply(root, edits):
    """``edits``: (relpath, None, appendix) appends; (relpath, find,
    replace) rewrites an exact occurrence (asserted present)."""
    for relpath, find, payload in edits:
        target = root / relpath
        text = target.read_text()
        if find is None:
            target.write_text(text + payload)
        else:
            assert find in text, f"mutation anchor missing in {relpath}"
            target.write_text(text.replace(find, payload))


# Each entry: (test id, edits, expected rule, file the finding lands in,
# must the finding carry a witness chain)
MUTATIONS = [
    (
        # the acquire lives in a helper that returns the try_acquire
        # result; the caller branches on it and leaks on the success
        # path — invisible to any single-function analysis of either
        "cross_function_lock_leak",
        [(
            "src/repro/core/trylock.py", None,
            "\n\ndef _mutant_grab(sq, kt):\n"
            "    return sq.lock.try_acquire(kt)\n"
            "\n\ndef _mutant_drain(sq, kt):\n"
            "    if _mutant_grab(sq, kt):\n"
            "        return sq.queue.rx_burst(32)\n"
            "    return None\n",
        )],
        "L003", "src/repro/core/trylock.py", True,
    ),
    (
        # the observer hands its subject to a helper in another module
        # that mutates it: P001 sees nothing in the observer file, the
        # helper's file is not an observer file
        "transitive_observer_write",
        [
            (
                "src/repro/kernel/sleep.py", None,
                "\n\ndef _mutant_touch(q):\n"
                "    q.drained = True\n",
            ),
            (
                "src/repro/metrics/recorder.py", None,
                "\n\nfrom repro.kernel.sleep import _mutant_touch\n"
                "\n\ndef _mutant_observe(q):\n"
                "    _mutant_touch(q)\n"
                "    return q\n",
            ),
        ],
        "P003", "src/repro/metrics/recorder.py", True,
    ),
    (
        # a generator keeping module-global state: identical (spec,
        # seed) calls would no longer produce identical traces
        "generator_global_state",
        [(
            "src/repro/traffic/generators.py", None,
            "\n\n_MUTANT_CALLS = 0\n"
            "\n\ndef _mutant_counting(duration_ns=1000):\n"
            "    global _MUTANT_CALLS\n"
            "    _MUTANT_CALLS += 1\n"
            "    return steady_background(duration_ns)\n",
        )],
        "G001", "src/repro/traffic/generators.py", False,
    ),
    (
        # a generator drawing from a foreign stream family couples
        # trace bytes to another subsystem's draw order
        "generator_foreign_stream",
        [(
            "src/repro/traffic/generators.py", None,
            "\n\ndef _mutant_foreign(seed):\n"
            "    streams = RandomStreams(seed)\n"
            "    return streams.stream(\"net.jitter\").random()\n",
        )],
        "G002", "src/repro/traffic/generators.py", False,
    ),
    (
        # the PR-7 peek_joules bug class, made structural: capture
        # calling the interval-closing accessor instead of the pure
        # peek mutates the power meter mid-snapshot
        "checkpoint_impure_accessor",
        [(
            "src/repro/sim/snapshot.py",
            "machine.power.peek_joules()",
            "machine.power.read_joules()",
        )],
        "C001", "src/repro/kernel/power.py", True,
    ),
]


@pytest.mark.parametrize("name,edits,rule,where,chained",
                         MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_interprocedural_mutation_detected(
    tmp_path, name, edits, rule, where, chained
):
    root = _copy_tree(tmp_path)
    _apply(root, edits)
    rc, out = _run_lint(str(root))
    assert rc == 1, f"mutated tree must fail lint:\n{out}"
    doc = json.loads(out)
    got = [(f["rule"], f["path"]) for f in doc["findings"]]
    assert got == [(rule, where)], (
        f"expected exactly one {rule} in {where}, got: {got}"
    )
    if chained:
        assert doc["findings"][0].get("chain"), (
            f"{rule} finding should carry its witness call chain: "
            f"{doc['findings']}"
        )


def test_no_mutation_control_is_clean(tmp_path):
    root = _copy_tree(tmp_path)
    rc, out = _run_lint(str(root))
    assert rc == 0, out
