"""Implicit sorting: the window scheduler of paper §III-D2.

"At every step of the computation, a window of sizes is noted as
'active sizes' ... This approach allows the algorithm to go through the
matrices by batch of 'nearly similar sizes', improving occupancy and
workload balance.  The window size is determined by the block size nb."

Concretely: matrix indices are ordered by size (descending) once, and
each factorization step's launch set is split into sub-launches whose
remaining row counts fall in one window.  Each sub-launch then gets a
block dimension tailored to its window (few idle threads), contains no
finished matrices (no dead blocks), and has near-uniform block
durations (no wave imbalance) — the three mechanisms behind the
measured gains.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = ["SizeWindow", "sorted_order", "partition_windows", "window_bounds"]


@dataclass(frozen=True)
class SizeWindow:
    """One sub-launch: matrix indices plus their max remaining rows."""

    indices: np.ndarray
    max_m: int

    def __post_init__(self):
        if self.max_m <= 0:
            raise ValueError(f"window max_m must be positive, got {self.max_m}")
        if len(self.indices) == 0:
            raise ValueError("window cannot be empty")


def sorted_order(sizes: np.ndarray) -> np.ndarray:
    """Indices ordered by size descending (stable for reproducibility)."""
    sizes = np.asarray(sizes)
    return np.argsort(-sizes, kind="stable").astype(np.int64)


def window_bounds(win_id: np.ndarray, cum, min_count: int = 0) -> list[int]:
    """Unit boundaries ``[0, ..., n]`` of the size windows of one step.

    The ``n`` units are consecutive pieces of a descending live prefix:
    single matrices, or runs of equal sizes.  ``win_id`` is each unit's
    (non-increasing) window id and ``cum`` (length ``n + 1``, any
    sequence) the number of matrices ahead of each unit.  A window
    takes units until it holds ``min_count`` matrices (at least one),
    then runs on to the end of the last taken unit's window id.
    """
    n = len(win_id)
    total = cum[n]
    take = max(min_count, 1)
    if take >= total:
        return [0, n]
    run_ends = (np.flatnonzero(win_id[1:] != win_id[:-1]) + 1).tolist()
    run_ends.append(n)
    bounds = [0]
    start = 0
    while start < n:
        target = cum[start] + take
        if target >= total:
            bounds.append(n)
            break
        last = bisect_right(cum, target - 1) - 1  # the unit holding matrix target - 1
        start = run_ends[bisect_right(run_ends, last)]
        bounds.append(start)
    return bounds


def partition_windows(
    sizes: np.ndarray,
    order: np.ndarray,
    offset: int,
    window_width: int,
    min_count: int = 0,
) -> list[SizeWindow]:
    """Split the live matrices at column ``offset`` into size windows.

    ``order`` must be a descending-size ordering of all indices; the
    live set (``sizes > offset``) is then a prefix of it.  Windows are
    emitted largest-first, each spanning ``window_width`` remaining
    rows, e.g. ``(448, 512] (384, 448] ...``.

    ``min_count`` merges adjacent windows until each launch has at
    least that many blocks: a sub-launch far smaller than the device's
    block slots would waste whole waves, so the scheduler trades a
    little size similarity for launch fullness.
    """
    if window_width <= 0:
        raise ValueError(f"window_width must be positive, got {window_width}")
    if offset < 0:
        raise ValueError(f"offset cannot be negative, got {offset}")
    sizes = np.asarray(sizes)
    remaining = sizes[order] - offset
    live_count = int(np.searchsorted(-remaining, 0))  # descending prefix
    if live_count == 0:
        return []
    live_order = order[:live_count]
    live_remaining = remaining[:live_count]
    # Window id of each live matrix: ceil(m / width) - 1, so the largest
    # window holds remaining sizes in ((w)*width, (w+1)*width].
    win_id = (live_remaining - 1) // window_width
    bounds = window_bounds(win_id, range(live_count + 1), min_count)
    return [
        # descending => the first matrix of a window has its max
        SizeWindow(indices=live_order[a:b].copy(), max_m=int(live_remaining[a]))
        for a, b in zip(bounds, bounds[1:])
    ]
