"""Tests for the profiling and trace-export tooling."""

import json

import pytest

from repro import Device, OpOptions, VBatch, potrf_vbatched
from repro.bench import export_chrome_trace, format_profile, profile_timeline
from repro.device.clock import Timeline
from repro.distributions import uniform_sizes


def _run_workload():
    dev = Device(execute_numerics=False)
    b = VBatch.allocate(dev, uniform_sizes(200, 128, seed=0), "d")
    dev.reset_clock()
    potrf_vbatched(dev, b, OpOptions())
    return dev


class TestProfile:
    def test_flat_profile_shape(self):
        dev = _run_workload()
        prof = profile_timeline(dev.timeline)
        assert prof
        assert prof == sorted(prof, key=lambda p: -p.total_time)
        assert sum(p.share for p in prof) == pytest.approx(1.0)
        cats = {p.category for p in prof}
        assert any(c.startswith("kernel:fused_potrf") for c in cats)
        assert any(c.startswith("kernel:aux") for c in cats)

    def test_aux_share_is_negligible(self):
        """§III-F measured through the profiler."""
        dev = _run_workload()
        aux = sum(p.share for p in profile_timeline(dev.timeline) if "aux" in p.category)
        assert aux < 0.05

    def test_format_profile_renders(self):
        dev = _run_workload()
        text = format_profile(dev.timeline)
        assert "category" in text and "share_%" in text

    def test_empty_timeline(self):
        assert profile_timeline(Timeline()) == []


class TestChromeTrace:
    def test_export_valid_json(self, tmp_path):
        dev = _run_workload()
        path = export_chrome_trace(dev.timeline, tmp_path / "trace.json")
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        assert len(events) == len(dev.timeline.intervals)
        for e in events:
            assert e["ph"] == "X"
            assert e["dur"] >= 0
            assert "utilization" in e["args"]

    def test_events_ordered_within_simulated_time(self, tmp_path):
        dev = _run_workload()
        path = export_chrome_trace(dev.timeline, tmp_path / "t.json")
        events = json.loads(path.read_text())["traceEvents"]
        end = dev.synchronize() * 1e6
        for e in events:
            assert 0 <= e["ts"] <= end + 1e-6
