"""Simulated timeline: the device clock and per-category busy-time sums.

The device records every kernel launch and transfer here.  The energy
module needs only sums over busy time, and the bench harness's flat
profile (how we verify that the auxiliary kernels' overhead is "almost
negligible", paper §III-F) needs only per-category call counts and
totals, so the timeline keeps fixed per-category accumulators instead
of a log: its size is O(categories), however long the device lives.
A per-event record of a run is the :class:`~repro.observability.Tracer`'s
job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Timeline"]


@dataclass
class Timeline:
    """The simulated clock plus per-category sums of recorded spans.

    ``sums`` maps category -> ``[calls, busy_s, util_busy_s]``, where
    ``util_busy_s`` is the sum of utilization x duration.
    ``utilization`` is the fraction of the resource kept busy during a
    span (block slots for a kernel, 0 for a transfer); it scales the
    dynamic term of the power models.
    """

    now: float = 0.0
    sums: dict[str, list] = field(default_factory=dict)

    def record(self, start: float, end: float, category: str, utilization: float = 1.0) -> None:
        """Add one span at an explicit position; moves ``now`` forward only."""
        if end < start:
            raise ValueError(f"span ends before it starts: {category} [{start}, {end}]")
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1]: {category} {utilization}")
        duration = end - start
        acc = self.sums.get(category)
        if acc is None:
            self.sums[category] = [1, duration, utilization * duration]
        else:
            acc[0] += 1
            acc[1] += duration
            acc[2] += utilization * duration
        if end > self.now:
            self.now = end

    def reset(self) -> None:
        self.now = 0.0
        self.sums.clear()

    def categories(self) -> dict[str, float]:
        """Map category -> accumulated duration (a flat profile)."""
        return {category: acc[1] for category, acc in self.sums.items()}
