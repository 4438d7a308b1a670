"""Whole-tree smoke, analyzer determinism, and seeded-mutation detection.

Three acceptance gates:

* the shipped tree is lint-clean under ``--strict``;
* the analyzer's JSON and SARIF output is byte-identical across runs
  and across ``PYTHONHASHSEED`` values;
* seeded mutations — a wall-clock call, an unpaired ``try_acquire``, a
  raw ``random.Random`` — each fail the run with exactly one finding:
  the expected rule id in the mutated file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.cli import main as cli_main

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")


def test_shipped_tree_is_strict_clean(capsys):
    rc = cli_main(["lint", "--strict", "--root", REPO])
    out = capsys.readouterr().out
    assert rc == 0, f"shipped tree must lint clean:\n{out}"
    assert "0 finding(s)" in out


def test_every_inline_suppression_carries_a_reason(capsys):
    # S001 would fire otherwise, but assert the stronger statement: the
    # suppressed findings the clean run reports all map to reasoned
    # comments (exercised via --verbose output listing them)
    rc = cli_main(["lint", "--root", REPO, "--verbose"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "S001" not in out


def _run_lint(root, fmt, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=SRC + os.pathsep + REPO)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--root", root,
         "--format", fmt],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("fmt", ["json", "sarif"])
def test_output_byte_identical_across_hashseeds(fmt):
    rc0, out0 = _run_lint(REPO, fmt, 0)
    rc1, out1 = _run_lint(REPO, fmt, 12345)
    rc2, out2 = _run_lint(REPO, fmt, 0)
    assert rc0 == rc1 == rc2 == 0
    assert out0 == out1 == out2, (
        f"{fmt} output differs across PYTHONHASHSEED runs"
    )


# ---------------------------------------------------------------------- #
# seeded mutations
# ---------------------------------------------------------------------- #

MUTATIONS = [
    # (victim file, original snippet, mutated snippet, expected rule)
    (
        "src/repro/kernel/sleep.py", None,
        "\n\ndef _mutant_wallclock():\n"
        "    import time\n"
        "    return time.time()\n",
        "D002",
    ),
    (
        "src/repro/core/trylock.py", None,
        "\n\ndef _mutant_leak(sq, kt):\n"
        "    if sq.lock.try_acquire(kt):\n"
        "        return sq.queue.rx_burst(32)\n",
        "L001",
    ),
    (
        "src/repro/kernel/noise.py", None,
        "\n\ndef _mutant_rng():\n"
        "    import random\n"
        "    return random.Random(1).random()\n",
        "D001",
    ),
]


@pytest.mark.parametrize("victim,_orig,appendix,rule",
                         MUTATIONS, ids=[m[3] for m in MUTATIONS])
def test_seeded_mutation_detected(tmp_path, victim, _orig, appendix, rule):
    root = tmp_path / "mutant"
    shutil.copytree(os.path.join(REPO, "src"), root / "src")
    target = root / victim
    target.write_text(target.read_text() + appendix)
    rc, out = _run_lint(str(root), "json", 0)
    assert rc == 1, f"mutated tree must fail lint:\n{out}"
    doc = json.loads(out)
    got = [(f["rule"], f["path"]) for f in doc["findings"]]
    assert got == [(rule, victim)], (
        f"expected exactly one {rule} in {victim}, got: {got}"
    )


def test_unmutated_copy_stays_clean(tmp_path):
    root = tmp_path / "pristine"
    shutil.copytree(os.path.join(REPO, "src"), root / "src")
    rc, out = _run_lint(str(root), "json", 0)
    assert rc == 0, out
