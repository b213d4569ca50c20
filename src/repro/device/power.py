"""GPU board power model (NVML stand-in for Fig 10).

A K40c idles around 25 W and has a 235 W board power limit.  During a
kernel, draw scales with how busy the SMs are — we use the launch's
slot utilization summed on the timeline.  Energy to solution is the
integral of draw over the run, including idle gaps (the board is
powered whether or not it computes, exactly what NVML integration over
the experiment window measures).
"""

from __future__ import annotations

from dataclasses import dataclass

from .clock import Timeline

__all__ = ["GpuPowerModel", "K40C_POWER"]


@dataclass(frozen=True)
class GpuPowerModel:
    """Linear utilization -> power map for a GPU board.

    ``activity_scale`` converts slot occupancy into power-relevant
    activity: batched small-matrix kernels are memory- and
    latency-bound, so even fully-occupied SMs draw well below the board
    limit (a K40c runs batched dpotrf nearer 150 W than its 235 W cap).
    """

    idle_watts: float
    max_watts: float
    activity_scale: float = 0.60

    def __post_init__(self):
        if self.idle_watts < 0 or self.max_watts < self.idle_watts:
            raise ValueError(f"inconsistent power model: {self}")
        if not 0.0 < self.activity_scale <= 1.0:
            raise ValueError(f"activity_scale must be in (0, 1]: {self}")

    def power(self, utilization: float) -> float:
        """Instantaneous draw at a given SM slot utilization in [0, 1]."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")
        activity = utilization * self.activity_scale
        return self.idle_watts + (self.max_watts - self.idle_watts) * activity

    def energy(self, timeline: Timeline, total_time: float | None = None) -> float:
        """Joules consumed over a run.

        Busy time integrates at its recorded utilization: draw is linear
        in utilization, so the timeline's sums of duration and of
        utilization x duration give the integral.  The remainder of
        ``total_time`` (default: the timeline's clock) integrates at
        idle draw.
        """
        span = timeline.now if total_time is None else total_time
        if span < 0:
            raise ValueError("total_time cannot be negative")
        busy_time = util_busy_time = 0.0
        for _, busy, util_busy in timeline.sums.values():
            busy_time += busy
            util_busy_time += util_busy
        dynamic = (self.max_watts - self.idle_watts) * self.activity_scale
        idle_gap = max(0.0, span - busy_time)
        return self.idle_watts * busy_time + dynamic * util_busy_time + self.idle_watts * idle_gap


K40C_POWER = GpuPowerModel(idle_watts=25.0, max_watts=235.0)
