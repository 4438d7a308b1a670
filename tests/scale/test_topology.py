"""NicPort per-queue placement and steering, and RSS trace sharding."""

import pytest

from repro import config
from repro.harness.experiment import run_xdp
from repro.nic.device import NicPort
from repro.nic.flows import FlowSet
from repro.nic.rss import RssSteering
from repro.nic.topology import rss_shard
from repro.nic.traffic import CbrProcess
from repro.sim.core import Simulator
from repro.sim.units import MS
from repro.traffic import TraceReplayProcess, benign_phased, generate


def make_trace(duration_ms=10, seed=config.DEFAULT_SEED):
    return generate(benign_phased(duration_ms * MS), seed)


# --------------------------------------------------------------------- #
# NicPort placement and steering
# --------------------------------------------------------------------- #


def test_device_numbers_queues_contiguously_across_ports():
    # one NicPort is the whole device: its queues are numbered 0..n-1
    sim = Simulator()
    port = NicPort(sim, [CbrProcess(0) for _ in range(5)])
    assert [q.index for q in port.queues] == [0, 1, 2, 3, 4]


def test_per_queue_node_overrides():
    sim = Simulator()
    port = NicPort(sim, [CbrProcess(0) for _ in range(4)],
                   queue_nodes=[0, 0, 1, 1])
    assert [q.node for q in port.queues] == [0, 0, 1, 1]
    with pytest.raises(ValueError, match="queue_nodes"):
        NicPort(sim, [CbrProcess(0)], queue_nodes=[0, 1])


def test_device_requires_ports():
    # the port is the device, so an empty one has no queues to serve
    with pytest.raises(ValueError, match="at least one queue"):
        NicPort(Simulator(), [])


# --------------------------------------------------------------------- #
# rss_shard: conservation and alignment
# --------------------------------------------------------------------- #


def test_shards_partition_the_master_schedule():
    trace = make_trace()
    master = TraceReplayProcess(trace)
    flows = FlowSet()
    shards = rss_shard(master, 8, flows=flows)
    assert len(shards) == 8
    assert sum(len(s._times) for s in shards) == len(master.schedule_times)
    # the union of shard schedules is exactly the master multiset
    merged = sorted(t for s in shards for t in s._times)
    assert merged == sorted(master.schedule_times)


def test_shard_counts_sum_to_master_at_every_time():
    trace = make_trace()
    master = TraceReplayProcess(trace)
    shards = rss_shard(TraceReplayProcess(trace), 4)
    step = trace.duration_ns // 50
    for k in range(1, 51):
        t = k * step
        assert (sum(s.advance(t) for s in shards)
                == master.advance(t)), f"diverged at t={t}"


def test_shard_steering_matches_rxqueue_tagging():
    """A shard's flows land on the queue the Rx tagger's header mapping
    (flow % num_flows -> header -> Toeplitz) would steer them to."""
    trace = make_trace()
    flows = FlowSet()
    steering = RssSteering(4)
    shards = rss_shard(TraceReplayProcess(trace), 4, flows=flows)
    for qi, shard in enumerate(shards):
        for flow in shard._flows[:50]:
            header = flows.header_of_flow(flow % flows.num_flows)
            assert steering.queue_for(header) == qi


def test_shard_flow_and_len_follow_subsequence():
    trace = make_trace()
    shards = rss_shard(TraceReplayProcess(trace), 2)
    for shard in shards:
        n = len(shard._times)
        if n == 0:
            continue
        assert shard.flow_of(0) == shard._flows[0]
        assert shard.len_of(n - 1) == shard._lens[n - 1]
        assert shard.flow_of(n) is None        # past the end
        assert shard.snapshot_state()["n"] == n


def test_cbr_is_not_shardable():
    with pytest.raises(ValueError, match="no fixed per-packet schedule"):
        rss_shard(CbrProcess(1_000_000), 4)


# --------------------------------------------------------------------- #
# run_xdp: the lifted single-queue restriction
# --------------------------------------------------------------------- #


def test_run_xdp_sharded_replay_conserves_packets():
    trace = make_trace()
    res1 = run_xdp(TraceReplayProcess(trace), duration_ms=10,
                   cfg=config.SimConfig(seed=2020), num_queues=1,
                   checks=True)
    res4 = run_xdp(TraceReplayProcess(trace), duration_ms=10,
                   cfg=config.SimConfig(seed=2020, num_cores=4),
                   num_queues=4, cores=[0, 1, 2, 3], checks=True)
    assert res1.machine.checks.ok
    assert res4.machine.checks.ok
    # the sharded run offers exactly the same schedule (conservation:
    # the monitors' quiesce pass already proved arrived == popped +
    # dropped + in-flight for every queue of both runs)
    assert res4.offered == res1.offered
    assert res1.delivered + res1.drops <= res1.offered
    assert res4.delivered + res4.drops <= res4.offered
    # four cores drain the same offered load no worse than one
    assert res4.drops <= res1.drops


def test_run_xdp_cbr_split_still_works():
    res = run_xdp(1_000_000, duration_ms=5,
                  cfg=config.SimConfig(seed=2020, num_cores=2),
                  num_queues=2, cores=[0, 1], checks=True)
    assert res.machine.checks.ok
    assert res.offered > 0
