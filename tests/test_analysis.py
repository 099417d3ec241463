"""Tests for measurement utilities."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import MemoryMeter, Table, format_bytes, format_ratio


class TestMemoryMeter:
    def test_peak_tracks_high_water(self):
        meter = MemoryMeter()
        meter.allocate(100)
        meter.allocate(50)
        meter.free(120)
        meter.allocate(10)
        assert meter.peak_bytes == 150
        assert meter.live_bytes == 40

    def test_categories(self):
        meter = MemoryMeter()
        meter.allocate(100, "a")
        meter.allocate(30, "b")
        meter.free_category("a")
        assert meter.live_bytes == 30
        meter.free_category("a")  # already empty
        assert meter.live_bytes == 30
        with pytest.raises(ValueError):
            meter.free(1, "a")

    def test_over_free_rejected(self):
        meter = MemoryMeter()
        meter.allocate(10, "x")
        with pytest.raises(ValueError):
            meter.free(20, "x")

    def test_negative_rejected(self):
        meter = MemoryMeter()
        with pytest.raises(ValueError):
            meter.allocate(-1)
        with pytest.raises(ValueError):
            meter.free(-1)

    def test_scope(self):
        meter = MemoryMeter()
        with meter.scope(500, "tmp"):
            assert meter.live_bytes == 500
        assert meter.live_bytes == 0
        assert meter.peak_bytes == 500

    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=50))
    def test_peak_is_max_prefix_sum(self, allocations):
        meter = MemoryMeter()
        total = 0
        peak = 0
        for n in allocations:
            meter.allocate(n)
            total += n
            peak = max(peak, total)
        assert meter.peak_bytes == peak
        assert meter.live_bytes == total


class TestFormatting:
    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(3 << 20) == "3.0 MB"
        assert format_bytes(5 << 30) == "5.0 GB"

    def test_format_ratio(self):
        assert format_ratio(50, 100) == "50.0%"
        assert format_ratio(1, 0) == "n/a"


class TestTable:
    def test_render_aligned(self):
        table = Table(["name", "value"], title="T")
        table.add_row("a", 1)
        table.add_row("longer", 22)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_wrong_arity_rejected(self):
        table = Table(["one"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)

    def test_str(self):
        table = Table(["h"])
        table.add_row("x")
        assert "x" in str(table)
