"""Checkpoint/restore: purity, round-trips, fresh-process restore.

The snapshot layer is replay-based (generator threads cannot be
pickled): ``capture`` is a pure read of the machine's dynamic state and
``restore`` rebuilds a fresh machine from the same recipe, replays to
the snapshot time, and verifies every component fingerprint.  These
tests pin the contract from both ends — capturing must never perturb a
run, and a restored machine must continue byte-identically, even in a
different process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import config
from repro.harness.experiment import run_dpdk, run_metronome, run_xdp
from repro.sim.snapshot import MachineState, SnapshotMismatch, capture, restore
from repro.sim.units import MS

from tests.conftest import run_fingerprint

# the one build recipe shared by every restore test — exec'd both here
# and inside the fresh subprocess, so the two sides cannot drift apart
RECIPE = textwrap.dedent("""
    from repro.config import SimConfig
    from repro.core.metronome import MetronomeGroup
    from repro.core.tuning import AdaptiveTuner
    from repro.dpdk.app import CountingApp
    from repro.kernel.machine import Machine
    from repro.nic.rxqueue import RxQueue
    from repro.nic.traffic import CbrProcess
    from repro.sim.units import US

    machine = Machine(SimConfig(num_cores=4, os_noise=True, seed=1234))
    q = RxQueue(machine.sim, CbrProcess(1_000_000), sample_every=64)
    group = MetronomeGroup(
        machine, [q], CountingApp(), num_threads=3, cores=[0, 1, 2],
        tuner=AdaptiveTuner(vbar_ns=10_000, tl_ns=500_000, m=3,
                            initial_rho=0.3))
    group.start()
""")

T1 = 2 * MS
T2 = 5 * MS


def build_machine():
    ns: dict = {}
    exec(RECIPE, ns)
    return ns["machine"]


def test_capture_is_pure():
    a, b = build_machine(), build_machine()
    a.run(until=T1)
    b.run(until=T1)
    for _ in range(3):
        capture(a)  # repeated captures must not perturb anything
    a.run(until=T2)
    b.run(until=T2)
    assert capture(a).diff(capture(b)) == []


def test_state_json_round_trip(tmp_path):
    m = build_machine()
    m.run(until=T1)
    state = m.snapshot(label="round-trip")
    clone = MachineState.from_dict(
        json.loads(json.dumps(state.to_dict())))
    assert state.diff(clone) == []
    assert clone.label == "round-trip"
    path = tmp_path / "ckpt.json"
    state.save(str(path))
    loaded = MachineState.load(str(path))
    assert state.diff(loaded) == []
    assert state.digest() == loaded.digest()
    assert state.size_bytes() > 0


def test_restore_continues_byte_identically():
    a = build_machine()
    a.run(until=T1)
    state = a.snapshot()
    b = build_machine()
    assert restore(b, state) == []
    assert b.now == T1
    a.run(until=T2)
    b.run(until=T2)
    assert capture(a).diff(capture(b)) == []


def test_restore_in_fresh_process(tmp_path):
    a = build_machine()
    a.run(until=T1)
    a.snapshot().save(str(tmp_path / "ckpt.json"))
    a.run(until=T2)
    expected = capture(a).digest()

    script = RECIPE + textwrap.dedent(f"""
        from repro.sim.snapshot import MachineState, capture, restore
        state = MachineState.load({str(tmp_path / "ckpt.json")!r})
        assert restore(machine, state) == []
        machine.run(until={T2})
        print(capture(machine).digest())
    """)
    # the package may be importable via sys.path alone (in-process
    # runners like tools/coverage.py) — the child needs it in the env
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, env=env)
    assert out.stdout.strip() == expected


def test_restore_refuses_machine_past_snapshot_time():
    a = build_machine()
    a.run(until=T1)
    state = a.snapshot()
    b = build_machine()
    b.run(until=T2)
    with pytest.raises(SnapshotMismatch, match="already at"):
        restore(b, state)


def test_restore_divergent_recipe_raises():
    a = build_machine()
    a.run(until=T1)
    state = a.snapshot()
    from repro.config import SimConfig
    from repro.kernel.machine import Machine

    stranger = Machine(SimConfig(num_cores=4, os_noise=True, seed=1234))
    with pytest.raises(SnapshotMismatch):
        restore(stranger, state)
    # non-strict mode reports the mismatches instead of raising
    stranger2 = Machine(SimConfig(num_cores=4, os_noise=True, seed=1234))
    assert restore(stranger2, state, strict=False) != []


CHECKPOINTED_RUNNERS = [
    pytest.param(
        lambda **kw: run_metronome(
            800_000, duration_ms=4, cfg=config.SimConfig(seed=11),
            num_threads=2, cores=[0, 1], **kw),
        id="metronome"),
    pytest.param(
        lambda **kw: run_dpdk(
            800_000, duration_ms=4, cfg=config.SimConfig(seed=11), **kw),
        id="dpdk"),
    pytest.param(
        lambda **kw: run_xdp(
            800_000, duration_ms=4, cfg=config.SimConfig(seed=11),
            num_queues=2, **kw),
        id="xdp"),
]


@pytest.mark.parametrize("runner", CHECKPOINTED_RUNNERS)
def test_runner_checkpoint_is_pure(runner):
    plain = runner()
    seen = {}

    def hook(machine, state):
        seen["t"] = machine.now
        seen["digest"] = state.digest()

    ckpt = runner(checkpoint_at_ns=2 * MS, at_checkpoint=hook)
    assert run_fingerprint(plain) == run_fingerprint(ckpt)
    assert ckpt.checkpoint.t == 2 * MS
    assert seen["t"] == 2 * MS
    assert seen["digest"] == ckpt.checkpoint.digest()
    assert plain.checkpoint is None

    # independent checkpointed runs agree on the state itself
    again = runner(checkpoint_at_ns=2 * MS)
    assert again.checkpoint.diff(ckpt.checkpoint) == []


@pytest.mark.parametrize("runner", CHECKPOINTED_RUNNERS)
def test_runner_rejects_checkpoint_outside_window(runner):
    # the window of every CHECKPOINTED_RUNNERS entry is [0, 4 ms]
    for t in (4 * MS + 1, -1):
        with pytest.raises(ValueError, match="outside the measurement"):
            runner(checkpoint_at_ns=t)


def test_chaos_checkpoint_is_pure():
    from repro.faults.chaos import run_chaos
    from repro.faults.plan import SHIPPED_PLANS

    plan = SHIPPED_PLANS["timer-misses"]
    t_ck = max(0, plan.first_fault_start_ns() - 1000)
    plain = run_chaos(plan, seed=7, duration_ms=12)
    ckpt = run_chaos(plan, seed=7, duration_ms=12, checkpoint_at_ns=t_ck)
    assert (plain.offered, plain.delivered, plain.drops,
            plain.violations) == \
           (ckpt.offered, ckpt.delivered, ckpt.drops, ckpt.violations)
    assert ckpt.checkpoint is not None
    assert ckpt.checkpoint.t == t_ck

    again = run_chaos(plan, seed=7, duration_ms=12, checkpoint_at_ns=t_ck)
    assert again.checkpoint.diff(ckpt.checkpoint) == []


def test_fork_into_variant_futures():
    """One snapshot, two futures: machines restored from the same state
    diverge the moment their workloads differ, sharing the prefix."""
    a = build_machine()
    a.run(until=T1)
    state = a.snapshot()

    b, c = build_machine(), build_machine()
    assert restore(b, state) == []
    assert restore(c, state) == []
    assert capture(b).diff(capture(c)) == []

    # variant future: c gets an extra burst of timer work after the fork
    for i in range(50):
        c.sim.call_after(1000 + i * 997, lambda: None)
    b.run(until=T2)
    c.run(until=T2)
    diff = capture(b).diff(capture(c))
    assert diff != []  # the futures genuinely diverged
    assert any(m.startswith("sim") for m in diff)
