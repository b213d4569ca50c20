"""Tests for the profiling and trace-export tooling."""

from collections import Counter

import pytest

from repro import Device, OpOptions, VBatch, potrf_vbatched
from repro.__main__ import main
from repro.bench import format_profile, profile_timeline
from repro.device.clock import Timeline
from repro.distributions import uniform_sizes
from repro.observability import load_chrome_trace


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


class TestProfileTrace:
    """``profile --trace`` writes through the one schema-checked exporter."""

    ARGS = ["profile", "-b", "200", "-n", "96"]

    def test_trace_holds_one_span_per_launch(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        assert main(self.ARGS + ["--trace", str(path)]) == 0
        traced = capsys.readouterr().out
        assert main(self.ARGS) == 0
        plain = capsys.readouterr().out
        table = traced[traced.index("category"):traced.index("Chrome trace")].strip()
        assert table == plain[plain.index("category"):].strip()

        calls = {
            row.split()[0]: int(row.split()[1]) for row in table.splitlines()[2:]
        }
        spans = [
            e for e in load_chrome_trace(path)["traceEvents"]
            if e["ph"] == "X" and e["args"]["clock"] == "sim"
        ]
        kernels = Counter(
            f"kernel:{e['name']}" for e in spans if e["cat"] not in ("wait", "barrier")
        )
        assert kernels == {c: n for c, n in calls.items() if c.startswith("kernel:")}
        assert not any(e["name"].startswith("memcpy") for e in spans)

        assert main(["trace-report", str(path)]) == 0
