"""Thread-block wave scheduling onto SM slots.

Two paths compute the makespan of a launch from its per-block durations:

* **exact** — event-driven list scheduling in issue order onto ``S``
  block slots (what the GigaThread engine does, modulo per-SM detail);
  used whenever the grid is small enough to afford it.
* **analytic** — the list-scheduling area/critical-path estimate
  ``max(max_d, total/S + 0.5 * (1 - 1/S) * max_d)``, used for huge gemm
  grids where exact simulation would dominate wall time.

Both consume the same grouped ``(duration, count)`` records, so the
effects the paper measures — load imbalance from mixed block durations,
its reduction by implicit sorting — appear in either path.  Nothing is
cached here: repeated launches are served by the device's cost memo
(:meth:`repro.device.Device.prepare_launch`) before they reach the
scheduler.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = ["BlockScheduler", "ScheduleResult"]


class ScheduleResult:
    """Makespan plus occupancy-weighted utilization of one launch."""

    __slots__ = ("makespan", "total_block_time", "slots", "utilization", "exact")

    def __init__(self, makespan: float, total_block_time: float, slots: int, exact: bool):
        self.makespan = makespan
        self.total_block_time = total_block_time
        self.slots = slots
        self.exact = exact
        denom = makespan * slots
        self.utilization = 0.0 if denom <= 0 else min(1.0, total_block_time / denom)


class BlockScheduler:
    """Schedules grouped block durations onto a fixed number of slots."""

    def __init__(self, exact_threshold: int = 50_000):
        if exact_threshold < 0:
            raise ValueError("exact_threshold cannot be negative")
        self.exact_threshold = exact_threshold

    def makespan(
        self,
        durations: np.ndarray,
        counts: np.ndarray | None,
        slots: int,
        force: str | None = None,
    ) -> ScheduleResult:
        """Completion time of a launch whose blocks have these durations.

        ``durations``/``counts`` are parallel arrays of grouped block
        records in issue order.  ``force`` pins the path ("exact" or
        "analytic") for tests and ablations.
        """
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        d = np.asarray(durations, dtype=np.float64)
        if d.ndim != 1:
            raise ValueError("durations must be 1-D")
        c = (
            np.ones(d.shape, dtype=np.int64)
            if counts is None
            else np.asarray(counts, dtype=np.int64)
        )
        if c.shape != d.shape:
            raise ValueError(f"counts shape {c.shape} != durations shape {d.shape}")
        if d.size == 1:
            # One group (every single-matrix launch): the reductions
            # below on plain numbers, a fraction of the array calls.
            max_d, total_blocks = float(d[0]), int(c[0])
            if max_d < 0 or total_blocks < 0:
                raise ValueError("durations and counts must be non-negative")
            total_time = max_d * total_blocks
        else:
            if np.any(d < 0) or np.any(c < 0):
                raise ValueError("durations and counts must be non-negative")
            keep = c > 0
            d, c = d[keep], c[keep]
            total_blocks = int(c.sum())
            total_time = float(d @ c)
            max_d = float(d.max()) if d.size else 0.0
        if total_blocks == 0:
            return ScheduleResult(0.0, 0.0, slots, exact=True)

        use_exact = force == "exact" or (force is None and total_blocks <= self.exact_threshold)
        if use_exact:
            span = _exact_list_schedule(d, c, slots)
            return ScheduleResult(span, total_time, slots, exact=True)

        # Analytic: area bound plus half the classic list-scheduling
        # critical-path slack (random issue order sits around half the
        # adversarial (1 - 1/S) * max_d bound).
        span = max(max_d, total_time / slots + 0.5 * (1.0 - 1.0 / slots) * max_d)
        return ScheduleResult(span, total_time, slots, exact=False)


def _exact_list_schedule(durations: np.ndarray, counts: np.ndarray, slots: int) -> float:
    """Event-driven list scheduling in issue order.

    Slot free times are kept as a multiset (``{time: slot count}`` plus
    a heap of the distinct times), so every wave of equal blocks landing
    on equally-free slots is one dict update instead of per-slot heap
    traffic — O(distinct event times) rather than O(blocks).
    """
    if durations.size == 1:
        # One uniform wave set: ceil(count/slots) back-to-back waves.
        return float(durations[0]) * -(-int(counts[0]) // slots)
    free_count: dict[float, int] = {0.0: slots}
    heap = [0.0]
    for dur, cnt in zip(durations.tolist(), counts.tolist()):
        remaining = int(cnt)
        while remaining > 0:
            t0 = heap[0]
            avail = free_count[t0]
            take = avail if avail < remaining else remaining
            if take == avail:
                del free_count[t0]
                heapq.heappop(heap)
            else:
                free_count[t0] = avail - take
            t1 = t0 + dur
            if t1 in free_count:
                free_count[t1] += take
            else:
                free_count[t1] = take
                heapq.heappush(heap, t1)
            remaining -= take
    return max(free_count)
