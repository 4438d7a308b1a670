"""Determinism audit: every registered figure, byte-for-byte.

test_campaign_determinism.py spot-checks fig7/fig8; this audit sweeps
the *whole* registry so a newly added figure cannot quietly ship a
nondeterministic scenario.  Records are compared as canonical JSON —
the exact bytes the cache and the artifact writer persist — in-process
and through a forked worker, and each figure's first task is pinned
against a committed sha256 so a change that moves any figure's output
fails here rather than passing as "still self-consistent"."""

import hashlib
import json
import multiprocessing

import pytest

from repro.campaign import FIGURES
from repro.campaign.executor import execute_task, run_tasks

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="subprocess determinism tests exercise forked workers",
)


#: sha256 of canonical(record) of each figure's first scale-0.25 task;
#: a deliberate model change re-pins the figures it moves, nothing else
GOLDEN_SHA = {
    "fig12": (
        "750ba89045dcd2508a0c45e2974fb29e340b9db9f8d208a18b2efe00775cb793"
    ),
    "fig13": (
        "d28f2c0477a4b27785d2596e507072fb243178f347adc3ea9557f7122059bb83"
    ),
    "fig6": (
        "8179d1d3b6a9dc350f48af6c02f7ced4b0c544af10f39920adf788dcf2926f15"
    ),
    "fig7": (
        "ef6e5b2dd94071467445c09e76ee98e21b36d58113a94b32be2f6228f1b4d464"
    ),
    "fig8": (
        "a2656883339b55002c8e290ab782b6f6cf9876a63e82b96a6794d8be194fba00"
    ),
    "fig9": (
        "11b2f39463d43a1fcc9756e6c7bfd2cdcbc7db8d0d3d78c7df9c0b02c8b8b505"
    ),
    "scale_queue_count": (
        "3275010c47e16cec852fb679da52b0a48e0d09337be4e1cac3b86237b50a5b2a"
    ),
    "scale_thread_ratio": (
        "30647518637234766de33626d68c2c3f464429107629c8bd0701fd533f3d3e00"
    ),
    "table1": (
        "5b43ed2e58cda1860c4c4ecdd43f4e44d09cc20441acbf3af8bd00cd3ce5011c"
    ),
    "table2": (
        "4471da5f93524a17dce9f34ffffb430934a105ce87f37fcdcb8ae6bd0f3e15d6"
    ),
    "table3": (
        "b221e39d853527e9c53afff9ddafb883eaff09c412d82963ccb19bd30afa645a"
    ),
    "trace_adversary": (
        "e852579e41d7f807132a7b5a7b39eb21200a3308b70651048c9d5ee39834debd"
    ),
    "trace_phases": (
        "b8d38682677fbd0d31aa25022180de29f3d5ecbec5992756cb39defac585671d"
    ),
}

#: GOLDEN_SHA's fig13 task runs ``performance`` at 0 Gbps; this pins an
#: ``ondemand`` one (10 Gbps, scale 0.25), whose frequency steps land
#: mid-chunk, so a change to how a step charges the running chunk
#: shows up here
FIG13_ONDEMAND_TASK = 9
FIG13_ONDEMAND_SHA = (
    "60d5ec5a77109b611aa30464af304792cc05eb5c7a60120380a38da652985ae6"
)


def canonical(record) -> bytes:
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode()


def first_task(name):
    return FIGURES[name].tasks(scale=0.25)[0]


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_repeats_byte_identical_in_process(name):
    spec = first_task(name)
    first = canonical(execute_task(spec))
    assert first == canonical(execute_task(spec))
    assert hashlib.sha256(first).hexdigest() == GOLDEN_SHA[name]


def test_fig13_ondemand_task_pinned():
    spec = FIGURES["fig13"].tasks(scale=0.25)[FIG13_ONDEMAND_TASK]
    assert list(spec.params["governors"]) == ["ondemand"]
    record = canonical(execute_task(spec))
    assert hashlib.sha256(record).hexdigest() == FIG13_ONDEMAND_SHA


@fork_only
@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_forked_worker_matches_in_process(name):
    spec = first_task(name)
    (outcome,) = run_tasks([spec], workers=1)
    assert outcome.ok, outcome.error
    assert canonical(outcome.record) == canonical(execute_task(spec))


def test_audit_covers_the_whole_registry():
    # the paper's deliverables; extend this set when adding figures so
    # the audit's parametrization is known to track the registry
    assert set(FIGURES) == {
        "table1", "table2", "table3",
        "fig6", "fig7", "fig8", "fig9", "fig12", "fig13",
        "trace_phases", "trace_adversary",
        "scale_queue_count", "scale_thread_ratio",
    }
    assert set(GOLDEN_SHA) == set(FIGURES)
