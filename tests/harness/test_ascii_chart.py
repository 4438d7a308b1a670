"""Tests for the terminal chart helpers."""

import pytest

from repro.harness.ascii_chart import resample, sparkline


class TestSparkline:
    def test_monotone_ramp(self):
        s = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert s == "▁▂▃▄▅▆▇█"

    def test_flat_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_explicit_bounds(self):
        s = sparkline([5], lo=0, hi=10)
        assert s in "▄▅"

    def test_length_preserved(self):
        assert len(sparkline(list(range(100)))) == 100


class TestResample:
    def test_identity_length(self):
        assert resample([1, 2, 3], 3) == [1, 2, 3]

    def test_upsample(self):
        out = resample([0, 10], 5)
        assert len(out) == 5
        assert out[0] == 0 and out[-1] == 10

    def test_downsample_keeps_ends(self):
        out = resample(list(range(100)), 10)
        assert len(out) == 10
        assert out[0] == 0 and out[-1] == 99

    def test_single_value(self):
        assert resample([7], 4) == [7, 7, 7, 7]

    def test_empty_and_bad_n(self):
        assert resample([], 5) == []
        with pytest.raises(ValueError):
            resample([1], 0)
