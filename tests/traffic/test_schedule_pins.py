"""Replay schedules and RSS shards pinned across commits.

Both are read through the public ``ArrivalProcess`` surface only
(``snapshot_state``, ``time_for_count``, ``flow_of``), so the digests
hold whatever the processes store internally.
"""

import hashlib
import json

import pytest

from repro.nic.flows import FlowSet
from repro.nic.topology import rss_shard
from repro.sim.units import MS
from repro.traffic import TraceReplayProcess, benign_phased, generate

#: sha256 of ``[arrival times, cycle_ns]``, keyed by the (speedup,
#: jitter) it was recorded at: replay runs at 1x with no jitter
SCHEDULE_SHA = {
    (1.0, 0.0):
        "0794604fb250c5bbea3c73c9456c8c725ac966f2fdc002825fce7b5241e87c10",
}

#: sha256 of ``[[times, flows] per shard]`` per queue count
SHARD_SHA = {
    2: "0da69967fa149391c33ce9c9530549dd45968570ae00f15d32479e0dbae417b7",
    4: "1860c85a5a11ca178a20c19b142bf4c8da69b29e884850a12cf8bbb4dc7d42d3",
    8: "896d66f5556cf597c3ac0f64630081a73f578998c507762ca222136553750c60",
}


@pytest.fixture(scope="module")
def trace():
    t = generate(benign_phased(20 * MS), 3)
    assert t.packet_count == 42_519
    return t


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _times(process):
    n = process.snapshot_state()["n"]
    return [process.time_for_count(0, k) for k in range(1, n + 1)]


def _flows(process):
    n = process.snapshot_state()["n"]
    return [process.flow_of(i) for i in range(n)]


@pytest.mark.parametrize("speedup,jitter", sorted(SCHEDULE_SHA))
def test_replay_schedule_is_pinned(trace, speedup, jitter):
    p = TraceReplayProcess(trace)
    assert _digest([_times(p), p.cycle_ns]) == SCHEDULE_SHA[(speedup, jitter)]


@pytest.mark.parametrize("queues", sorted(SHARD_SHA))
def test_rss_shards_are_pinned(trace, queues):
    shards = rss_shard(TraceReplayProcess(trace), queues, flows=FlowSet())
    digest = _digest([[_times(s), _flows(s)] for s in shards])
    assert digest == SHARD_SHA[queues]
