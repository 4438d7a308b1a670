"""``repro chaos`` from the command line.

The plain verdict table, then ``--checkpoint-before-fault``, the
replay-debugging mode: it runs each scenario twice with a snapshot
pinned just before the first fault window, and verifies that both the
checkpoint state and the final verdict replay byte-identical.  The saved
state is a loadable :class:`~repro.sim.snapshot.MachineState`.
"""

import json

from repro.cli import main
from repro.sim.snapshot import SNAPSHOT_VERSION, MachineState


def test_verdict_table(capsys):
    rc = main(["chaos", "timer-misses", "--seed", "7", "--duration-ms", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "chaos — 10 ms per run" in out
    row = next(line for line in out.splitlines()
               if line.startswith("timer-misses"))
    assert [cell.strip() for cell in row.split("|")][:3] == [
        "timer-misses", "7", "ok"]


def test_checkpoint_before_fault_replays_identical(tmp_path, capsys):
    out_path = tmp_path / "ckpt.json"
    rc = main([
        "chaos", "timer-misses", "--seed", "7", "--duration-ms", "10",
        "--checkpoint-before-fault", "--checkpoint-out", str(out_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "every prefix and continuation replayed byte-identical" in out
    assert "timer-misses" in out
    state = MachineState.load(str(out_path))
    assert state.version == SNAPSHOT_VERSION
    assert state.t > 0
    assert state.size_bytes() > 0
    # the artifact is plain JSON, inspectable by external tooling
    payload = json.loads(out_path.read_text())
    assert set(payload["components"]) >= {"sim", "rng", "cores", "threads"}


def test_checkpoint_out_suffixes_for_multiple_scenarios(tmp_path, capsys):
    out_path = tmp_path / "ckpt.json"
    rc = main([
        "chaos", "timer-misses", "--seed", "7", "--seed", "42",
        "--duration-ms", "8",
        "--checkpoint-before-fault", "--checkpoint-out", str(out_path),
    ])
    assert rc == 0
    capsys.readouterr()
    for seed in (7, 42):
        suffixed = tmp_path / f"ckpt.json.timer-misses.s{seed}.json"
        assert suffixed.exists()
        assert MachineState.load(str(suffixed)).t > 0


def test_checkpoint_past_duration_exits_2(capsys):
    # timer-misses opens its first fault at 5 ms: a 3 ms run has no
    # healthy prefix to pin, which must be a usage error, not a crash
    rc = main([
        "chaos", "timer-misses", "--seed", "7", "--duration-ms", "3",
        "--checkpoint-before-fault",
    ])
    assert rc == 2
    out = capsys.readouterr().out
    assert "'timer-misses'" in out and "--duration-ms 3" in out
