"""Tests for the trace format: round-trip, identity, validation."""

import gzip

import pytest

from repro.traffic import (
    MAX_FRAME_LEN,
    TRACE_FORMAT,
    TRACE_VERSION,
    Phase,
    Trace,
    TraceError,
)


def small_trace() -> Trace:
    return Trace(
        phases=[Phase("warm", 0, 500), Phase("hot", 500, 1200)],
        records=[(100, 64, 1), (250, 512, 7), (500, 96, 2), (1100, 64, 7)],
        meta={"generator": "test", "seed": 3},
    )


def test_round_trip_plain(tmp_path):
    t = small_trace()
    path = str(tmp_path / "t.trace.jsonl")
    t.dump(path)
    back = Trace.load(path)
    assert back.records == t.records
    assert back.phases == t.phases
    assert back.meta == t.meta
    assert back.sha256() == t.sha256()


def test_round_trip_gzip_and_bit_stability(tmp_path):
    t = small_trace()
    a = str(tmp_path / "a.trace.jsonl.gz")
    b = str(tmp_path / "b.trace.jsonl.gz")
    t.dump(a)
    t.dump(b)
    # mtime=0 keeps the compressed bytes identical across writes
    assert open(a, "rb").read() == open(b, "rb").read()
    assert Trace.load(a).sha256() == t.sha256()


def test_sha256_stable_and_content_sensitive():
    t = small_trace()
    assert t.sha256() == small_trace().sha256()
    base = small_trace()
    other = Trace(phases=base.phases,
                  records=[(101, 64, 1)] + base.records[1:],
                  meta=base.meta)
    assert other.sha256() != t.sha256()


def test_columns_are_read_only():
    t = small_trace()
    for column in (t.times, t.lens, t.flows):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 5
    assert t.records[0] == (100, 64, 1)


def test_derived_quantities():
    t = small_trace()
    assert t.packet_count == 4
    assert t.byte_count == 64 + 512 + 96 + 64
    assert t.duration_ns == 1200  # last phase end > last record
    assert t.mean_rate_pps() == pytest.approx(4 * 1e9 / 1200)


def test_phase_slices_boundary_goes_to_next_phase():
    t = small_trace()
    (p0, lo0, hi0), (p1, lo1, hi1) = t.phase_slices()
    # the record at exactly t=500 belongs to the second phase
    assert (lo0, hi0) == (0, 2)
    assert (lo1, hi1) == (2, 4)


def test_validate_rejects_non_monotonic():
    t = Trace(records=[(10, 64, 0), (5, 64, 0)])
    with pytest.raises(TraceError, match="before previous"):
        t.validate()


def test_validate_rejects_bad_frame_len():
    with pytest.raises(TraceError, match="frame length"):
        Trace(records=[(1, 0, 0)]).validate()
    with pytest.raises(TraceError, match="frame length"):
        Trace(records=[(1, MAX_FRAME_LEN + 1, 0)]).validate()


def test_validate_rejects_negative_fields():
    with pytest.raises(TraceError, match="negative arrival"):
        Trace(records=[(-1, 64, 0)]).validate()
    with pytest.raises(TraceError, match="negative flow"):
        Trace(records=[(1, 64, -2)]).validate()


def test_validate_rejects_bad_phases():
    with pytest.raises(TraceError, match="empty name"):
        Trace(phases=[Phase("", 0, 10)]).validate()
    with pytest.raises(TraceError, match="end"):
        Trace(phases=[Phase("p", 10, 10)]).validate()
    with pytest.raises(TraceError, match="overlapping"):
        Trace(phases=[Phase("a", 0, 10), Phase("b", 5, 20)]).validate()


def test_validate_rejects_record_past_final_phase():
    t = Trace(phases=[Phase("a", 0, 10)], records=[(11, 64, 0)])
    with pytest.raises(TraceError, match="past the final phase"):
        t.validate()


def test_loads_rejects_wrong_format_and_version():
    with pytest.raises(TraceError, match="empty"):
        Trace.loads("")
    with pytest.raises(TraceError, match="format"):
        Trace.loads('{"format":"pcap","version":1}\n')
    with pytest.raises(TraceError, match="version"):
        Trace.loads(
            '{"format":"%s","version":%d}\n' % (TRACE_FORMAT,
                                                TRACE_VERSION + 1)
        )


def test_loads_rejects_truncation():
    text = small_trace().dumps()
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    with pytest.raises(TraceError, match="truncated"):
        Trace.loads(truncated)


def test_loads_rejects_malformed_record():
    header = small_trace().dumps().splitlines()[0]
    with pytest.raises(TraceError, match="bad record"):
        Trace.loads(header + "\n[1,64\n")
    with pytest.raises(TraceError, match=r"\[t,len,flow\]"):
        Trace.loads(header + "\n[1,64]\n")


@pytest.mark.parametrize("record", [
    "[1.7,64,0]", "[true,64,0]", "[1,64.9,0]", '["5",64,0]',
])
def test_loads_rejects_non_integer_fields(record):
    header = Trace(records=[(1, 64, 0)]).dumps().splitlines()[0]
    with pytest.raises(TraceError, match="line 2: .*not a 64-bit JSON integer"):
        Trace.loads(header + "\n" + record + "\n")


@pytest.mark.parametrize("count", ["1.0", "true", '"1"'])
def test_loads_rejects_non_integer_count(count):
    text = Trace(records=[(1, 64, 0)]).dumps().replace('"count":1',
                                                       f'"count":{count}')
    with pytest.raises(TraceError, match="line 1: header count"):
        Trace.loads(text)


@pytest.mark.parametrize("index,phase", [
    (0, '{"name":"a","start_ns":true,"end_ns":4.9}'),
    (1, '{"name":"b","start_ns":5,"end_ns":10.9}'),
    (1, '{"name":"b","start_ns":"5","end_ns":10}'),
    (1, '{"name":"b","start_ns":5,"end_ns":9223372036854775808}'),
    (1, '{"name":"b","start_ns":5}'),
    (1, '{"name":7,"start_ns":5,"end_ns":10}'),
    (1, '[5,10]'),
])
def test_loads_rejects_non_integer_phase_fields(index, phase):
    """Phase bounds follow the record-field rule (and a name must be a
    string): coercing ``true``/``4.9`` would load a trace whose sha256
    no longer matches its file."""
    text = Trace(phases=[Phase("a", 0, 5), Phase("b", 5, 10)],
                 records=[(1, 64, 0)]).dumps()
    written = ['{"end_ns":5,"name":"a","start_ns":0}',
               '{"end_ns":10,"name":"b","start_ns":5}'][index]
    assert written in text
    with pytest.raises(TraceError, match=f"line 1: phase {index}: "):
        Trace.loads(text.replace(written, phase))


def test_gzip_file_is_actually_gzip(tmp_path):
    path = str(tmp_path / "t.gz")
    small_trace().dump(path)
    with gzip.open(path, "rb") as fh:
        assert fh.read().decode().splitlines()[0].startswith('{"count"')


def test_describe_mentions_phases_and_sha():
    t = small_trace()
    text = t.describe()
    assert t.sha256() in text
    assert "warm" in text and "hot" in text
    assert "packets: 4" in text
