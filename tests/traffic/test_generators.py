"""Tests for the seeded trace generators: purity, specs, catalogue."""

import json

import pytest

from repro.sim.units import MS, SEC
from repro.traffic import (
    MAX_FRAME_LEN,
    SHIPPED_TRACES,
    PhaseSpec,
    TraceSpec,
    benign_phased,
    generate,
    microburst_ddos,
    steady_background,
)


#: ``generate(SHIPPED_TRACES[name](20 * MS), 1).sha256()``: the trace
#: bytes every shipped generator must keep across commits
GOLDEN_TRACE_SHA = {
    "benign":
        "7aa67deb612d1321edfde5d37775c8ccf6bb70ca8d1b74843cce4d46fc342e7c",
    "http-flood":
        "a7546421fb3c1dcef4f4c2b5266d070dbfe1dfa4de4f130c072514070bc9bc25",
    "microburst-ddos":
        "0fe597b76ca46df31db5c9723f071abf4f78b7584fd699b5a09a42887b64d07b",
    "slow-drip":
        "2094dae36e2bea4a7c01c6d41935e07c6ff6339170d78d6f3f972f0c0efe1cf6",
    "steady-background":
        "57b658da2cf31d00fdc88385e63ef3c352048a9fc11320c611e17cc1a0b13cec",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_SHA))
def test_shipped_trace_bytes_are_pinned(name):
    assert set(GOLDEN_TRACE_SHA) == set(SHIPPED_TRACES)
    trace = generate(SHIPPED_TRACES[name](20 * MS), 1)
    assert trace.sha256() == GOLDEN_TRACE_SHA[name]


def test_generation_is_pure_in_spec_and_seed():
    spec = benign_phased(5 * MS)
    assert generate(spec, 7).sha256() == generate(spec, 7).sha256()


def test_seed_sensitivity():
    spec = benign_phased(5 * MS)
    assert generate(spec, 7).sha256() != generate(spec, 8).sha256()


def test_spec_json_round_trip():
    spec = benign_phased(10 * MS)
    assert TraceSpec.from_dict(spec.to_dict()) == spec


def test_phase_spec_validation():
    with pytest.raises(ValueError, match="duration"):
        PhaseSpec("p", 0, 1000)
    with pytest.raises(ValueError, match="negative rate"):
        PhaseSpec("p", 100, -1)
    with pytest.raises(ValueError, match="unknown arrival"):
        PhaseSpec("p", 100, 1000, arrival="weibull")
    with pytest.raises(ValueError, match="flows"):
        PhaseSpec("p", 100, 1000, flows=0)
    with pytest.raises(ValueError, match="go together"):
        PhaseSpec("p", 100, 1000, burst_ns=10)
    # a flow space past int64 would overflow the flow column mid-draw
    with pytest.raises(ValueError, match=r"'p': flows .* above 2\*\*63"):
        PhaseSpec("p", 100, 1000, flows=2**63 + 1)
    assert PhaseSpec("p", 100, 1000, flows=2**63).flows == 2**63
    # both negative once read as a continuous phase
    with pytest.raises(ValueError, match="'p': negative burst_ns"):
        PhaseSpec("p", 100, 1000, burst_ns=-1, gap_ns=-1)
    with pytest.raises(ValueError, match="'p': negative gap_ns"):
        PhaseSpec("p", 100, 1000, gap_ns=-1)
    for frame_len in (0, -64, MAX_FRAME_LEN + 1):
        with pytest.raises(ValueError, match="'p': frame_len .* outside"):
            PhaseSpec("p", 100, 1000, frame_len=frame_len)
    assert PhaseSpec("p", 100, 1000, frame_len=MAX_FRAME_LEN).frame_len \
        == MAX_FRAME_LEN
    with pytest.raises(ValueError, match="needs a name"):
        TraceSpec("", (PhaseSpec("p", 100, 1000),))
    with pytest.raises(ValueError, match="no phases"):
        TraceSpec("empty")


INT_FIELDS = ("duration_ns", "rate_pps", "frame_len", "flows", "burst_ns",
              "gap_ns")


@pytest.mark.parametrize("bad", [256.0, True, "256", None])
@pytest.mark.parametrize("field", INT_FIELDS)
def test_phase_spec_rejects_non_integer_fields(field, bad):
    fields = {"name": "p", "duration_ns": 1000, "rate_pps": 1000}
    fields[field] = bad
    with pytest.raises(ValueError, match=f"'p': {field} .* is not an "
                                         "integer"):
        PhaseSpec(**fields)


def test_phase_spec_from_json_rejects_a_float_flow_space():
    d = json.loads('{"name": "p", "duration_ns": 1000, "rate_pps": 1000, '
                   '"flows": 256.0}')
    with pytest.raises(ValueError, match="flows 256.0 is not an integer"):
        PhaseSpec.from_dict(d)


def test_phase_spec_from_json_rejects_an_unknown_key():
    d = json.loads('{"name": "p", "duration_ns": 1000, "rate_pps": 1000, '
                   '"flow": 4}')
    with pytest.raises(ValueError, match=r"'p': unknown key\(s\) 'flow'"):
        PhaseSpec.from_dict(d)


@pytest.mark.parametrize("name", sorted(SHIPPED_TRACES))
def test_every_shipped_generator_produces_a_valid_trace(name):
    spec = SHIPPED_TRACES[name](4 * MS)
    trace = generate(spec, 2020)
    trace.validate()  # raises on any malformation
    assert trace.packet_count > 0
    assert trace.meta["generator"] == spec.name
    assert trace.meta["seed"] == 2020
    # phases tile the requested duration exactly, no gaps
    assert trace.phases[0].start_ns == 0
    assert trace.phases[-1].end_ns == spec.duration_ns == 4 * MS
    for prev, cur in zip(trace.phases, trace.phases[1:]):
        assert cur.start_ns == prev.end_ns


def test_cbr_phase_rate_is_exact():
    spec = TraceSpec("cbr-only", (
        PhaseSpec("s", 2 * MS, 1_000_000, arrival="cbr"),
    ))
    trace = generate(spec, 1)
    assert trace.packet_count == 2 * MS * 1_000_000 // SEC  # 2000


def test_poisson_phase_rate_is_approximate():
    trace = generate(steady_background(5 * MS, rate_pps=1_000_000), 3)
    expected = 5 * MS * 1_000_000 / SEC
    assert abs(trace.packet_count - expected) / expected < 0.1


def test_microburst_duty_cycle():
    trace = generate(microburst_ddos(10 * MS, burst_pps=12_000_000), 5)
    # 50 us bursts every 1 ms => ~5% duty => mean ~0.6 Mpps
    mean = trace.mean_rate_pps()
    assert 0.3e6 < mean < 0.9e6
    # and the slugs really are slugs: silence dominates the timeline
    gaps = [b[0] - a[0] for a, b in zip(trace.records, trace.records[1:])]
    assert max(gaps) > 900_000  # at least one inter-slug gap


def test_benign_phase_mix_rates():
    trace = generate(benign_phased(20 * MS), 2020)
    by_name = {p.name: (hi - lo, p.duration_ns)
               for p, lo, hi in trace.phase_slices()}
    rates = {name: n * SEC / dur for name, (n, dur) in by_name.items()}
    assert rates["dns_burst"] == pytest.approx(6e6, rel=0.1)
    assert rates["ssh_steady"] == pytest.approx(8e5, rel=0.05)
    assert rates["udp_light"] == pytest.approx(2e5, rel=0.2)


def test_scale_knob():
    full = generate(benign_phased(5 * MS, scale=1.0), 1)
    half = generate(benign_phased(5 * MS, scale=0.5), 1)
    ratio = half.packet_count / full.packet_count
    assert 0.4 < ratio < 0.6
