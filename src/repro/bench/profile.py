"""Run profiling: a flat per-kernel breakdown of the simulated run.

Where did the time go: it is how we verified §III-F's "auxiliary
kernels are almost negligible".  A per-launch Chrome trace of the same
run comes from a :class:`~repro.observability.Tracer` and
:func:`~repro.observability.write_chrome_trace`
(``python -m repro profile --trace``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..device.clock import Timeline
from .report import format_table

__all__ = ["KernelProfile", "profile_timeline", "format_profile"]


@dataclass(frozen=True)
class KernelProfile:
    """Aggregate stats of one timeline category."""

    category: str
    calls: int
    total_time: float
    mean_time: float
    share: float  # fraction of all recorded busy time


def profile_timeline(timeline: Timeline) -> list[KernelProfile]:
    """Flat profile over a timeline, heaviest categories first."""
    sums = timeline.sums
    grand = sum(time for _, time, _ in sums.values()) or 1.0
    profiles = [
        KernelProfile(cat, calls, time, time / calls, time / grand)
        for cat, (calls, time, _) in sums.items()
    ]
    return sorted(profiles, key=lambda p: -p.total_time)


def format_profile(timeline: Timeline) -> str:
    """Render the flat profile as a table."""
    rows = [
        [p.category, p.calls, p.total_time * 1e3, p.mean_time * 1e6, p.share * 100]
        for p in profile_timeline(timeline)
    ]
    return format_table(
        ["category", "calls", "total_ms", "mean_us", "share_%"], rows
    )

