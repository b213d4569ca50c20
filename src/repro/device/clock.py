"""Simulated timeline: interval recording for profiling and energy.

Both the device and the CPU model append :class:`Interval` records as
work is scheduled; the energy module integrates power over them and the
bench harness turns them into per-kernel profiles (how we verify that
the auxiliary kernels' overhead is "almost negligible", paper §III-F).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Interval", "Timeline"]


@dataclass(slots=True, unsafe_hash=True)
class Interval:
    """One span of simulated activity.

    ``utilization`` is the fraction of the resource kept busy during
    the span (block slots for a kernel, cores for a CPU phase); it
    scales the dynamic term of the power models.  Slotted rather than
    frozen: the device records one per launch, and a frozen init costs
    several times more.  Nothing changes an interval once recorded.
    """

    start: float
    end: float
    category: str
    utilization: float = 1.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"interval ends before it starts: {self}")
        if not 0.0 <= self.utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1]: {self}")


@dataclass
class Timeline:
    """Append-only log of simulated intervals with a current clock."""

    now: float = 0.0
    intervals: list[Interval] = field(default_factory=list)

    def advance(self, duration: float, category: str, utilization: float = 1.0) -> Interval:
        """Consume ``duration`` seconds of simulated time from ``now``."""
        if duration < 0:
            raise ValueError(f"cannot advance by negative duration {duration}")
        iv = Interval(self.now, self.now + duration, category, utilization)
        self.intervals.append(iv)
        self.now = iv.end
        return iv

    def record(self, start: float, end: float, category: str, utilization: float = 1.0) -> Interval:
        """Log an interval at an explicit position; moves ``now`` forward only."""
        iv = Interval(start, end, category, utilization)
        self.intervals.append(iv)
        self.now = max(self.now, end)
        return iv

    def reset(self) -> None:
        self.now = 0.0
        self.intervals.clear()

    def busy_time(self, prefix: str | None = None) -> float:
        """Total recorded duration, optionally filtered by category prefix."""
        return sum(
            iv.duration
            for iv in self.intervals
            if prefix is None or iv.category.startswith(prefix)
        )

    def categories(self) -> dict[str, float]:
        """Map category -> accumulated duration (a flat profile)."""
        out: dict[str, float] = {}
        for iv in self.intervals:
            out[iv.category] = out.get(iv.category, 0.0) + iv.duration
        return out
