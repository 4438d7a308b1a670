"""Output formats and CLI exit codes."""

from __future__ import annotations

import json
import os

from repro.cli import main as cli_main
from repro.lint.engine import LintConfig, run_lint
from repro.lint.report import render_json, render_sarif, render_text

BAD = """\
import random
import time


def f(sq, kt):
    t0 = time.time()
    if sq.lock.try_acquire(kt):
        return random.random() + t0
"""


def _tree(tmp_path, source=BAD):
    pkg = tmp_path / "src" / "repro" / "kernel"
    pkg.mkdir(parents=True)
    (pkg / "fixture.py").write_text(source)
    return str(tmp_path)


def test_text_report_lists_location_rule_and_hint(tmp_path):
    cfg = LintConfig(root=_tree(tmp_path))
    text = render_text(run_lint(cfg))
    assert "src/repro/kernel/fixture.py:6:10: D002" in text
    assert "hint:" in text
    assert "finding(s) in 1 file(s)" in text


def test_json_report_is_sorted_and_complete(tmp_path):
    cfg = LintConfig(root=_tree(tmp_path))
    doc = json.loads(render_json(run_lint(cfg)))
    rules = [f["rule"] for f in doc["findings"]]
    assert rules == sorted(rules) or doc["findings"] == sorted(
        doc["findings"], key=lambda f: (f["path"], f["line"], f["col"]))
    assert set(doc["counts"]) == {"D001", "D002", "L001"}
    assert doc["files"] == 1


def test_sarif_structure(tmp_path):
    cfg = LintConfig(root=_tree(tmp_path))
    doc = json.loads(render_sarif(run_lint(cfg)))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"D001", "D002", "L001", "P001", "A003"} <= ids
    res = run["results"]
    assert len(res) == 3
    loc = res[0]["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"].endswith("fixture.py")
    assert loc["region"]["startLine"] >= 1


def test_cli_findings_exit_1(tmp_path, capsys):
    root = _tree(tmp_path)
    assert cli_main(["lint", "--root", root]) == 1
    capsys.readouterr()
    rc = cli_main(["lint", "--root", root, "--strict"])
    assert rc == 1
    assert "D002" in capsys.readouterr().out


def test_cli_unknown_rule_exits_2(tmp_path, capsys):
    root = _tree(tmp_path)
    rc = cli_main(["lint", "--root", root, "--rule", "X999"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.strip().splitlines() == [
        "repro lint: unknown rule id(s): X999"]
    assert captured.out == ""


def test_cli_missing_path_exits_2(tmp_path, capsys):
    root = _tree(tmp_path)
    # a typo under an existing root, and a root whose default
    # src/repro does not exist: neither may pass as "0 findings"
    for argv, missing in (
        (["--root", root, "--strict", "src/repro/kernal"],
         os.path.join(root, "src/repro/kernal")),
        (["--root", os.path.join(root, "nonexistent"), "--strict"],
         os.path.join(root, "nonexistent", "src/repro")),
    ):
        rc = cli_main(["lint", "--no-cache"] + argv)
        captured = capsys.readouterr()
        assert rc == 2, argv
        assert captured.err.strip().splitlines() == [
            f"repro lint: no such file or directory: {missing}"]
        assert "finding(s)" not in captured.out


def test_cli_rule_selection(tmp_path, capsys):
    root = _tree(tmp_path)
    rc = cli_main(["lint", "--root", root, "--rule", "D002",
                   "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert set(doc["counts"]) == {"D002"}


def test_cli_unknown_path_reports_nothing(tmp_path, capsys):
    root = _tree(tmp_path)
    rc = cli_main(["lint", "--root", root, "src/repro/kernel",
                   "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["files"] == 1


def test_cli_out_file(tmp_path, capsys):
    root = _tree(tmp_path)
    out = os.path.join(root, "lint.sarif")
    rc = cli_main(["lint", "--root", root, "--format", "sarif",
                   "--out", out])
    assert rc == 1
    assert "-> " in capsys.readouterr().out
    doc = json.load(open(out))
    assert doc["version"] == "2.1.0"
