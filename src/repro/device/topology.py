"""Multi-device sharding: a device group and size-aware partitioners.

The paper runs on one K40c; BLASX-style runtimes show that lifting
batched work onto a task layer is what unlocks multi-GPU scaling.  With
the plan/execute split in place this layer is small: a
:class:`DeviceGroup` holds N simulated devices, a partitioner splits a
:class:`~repro.core.batch.VBatch`'s index space into per-device shards,
and the op driver's :func:`~repro.ops.driver.run_op_sharded` gives each
shard its own launch plan, executes the plans *concurrently* (every
simulated device advances its own clock, so the group's elapsed time is
the slowest shard) and merges the shard results back into one
:class:`~repro.ops.driver.OpResult`.

Partition policies:

* ``"flops"`` — greedy LPT balance on per-matrix POTRF flops (default;
  the heterogeneous-batch analogue of BLASX's locality-aware queues),
* ``"round-robin"`` — index ``i`` to device ``i % N``,
* ``"contiguous"`` — contiguous index ranges with near-equal flops
  (preserves batch order within a shard),
* ``"size-stratified"`` — contiguous strata of the *sorted-by-size*
  order with near-equal flops: shard 0 takes the largest matrices,
  the last shard the smallest, so only one shard pays the global
  ``max_n`` step count (the others' step loops stop early),
* ``"step-aware"`` — strata of the sorted order cut to minimize a
  modeled shard makespan (flop term + per-step ``max_n`` overhead
  term), the fix for flops-balanced shards that are step-imbalanced.

Why stratify: BENCH_pr2 shows ``"flops"`` stalling at 2.15x on 8
devices — LPT gives *every* shard a near-``max_n`` matrix, so every
shard walks the full step count.  Keeping per-shard ``max_n`` low is
worth more than perfect flops balance.
"""

from __future__ import annotations

import numbers

import numpy as np

from .. import flops as _flops
from ..errors import ArgumentError
from .calibration import Calibration, K40C_CALIBRATION
from .device import Device
from .spec import DeviceSpec, K40C

__all__ = ["DeviceGroup", "partition_sizes"]

_POLICIES = ("flops", "round-robin", "contiguous", "size-stratified", "step-aware")

#: Default step-aware shard-cost constants, fit against the simulated
#: K40c fused path on the fig3 workload: elapsed is dominated by a
#: per-step overhead proportional to the shard's ``max_n`` (one fused
#: step per factorization column block) plus a small per-row term,
#: with the flop term only mattering for large matrices.
_STEP_COST = 6.3e-6  # seconds per unit of shard max_n
_PER_ROW_COST = 4.3e-8  # seconds per unit of shard sum(n)
_FLOP_RATE = 5.0e11  # effective flops/s for the flop term


def _check_policy(policy: str) -> None:
    """One code, one message, for every unknown-policy complaint."""
    if policy not in _POLICIES:
        raise ArgumentError(
            2, f"unknown partition policy {policy!r} (use one of {_POLICIES})"
        )


def _default_shard_cost(shard_sizes: np.ndarray, shard_work: np.ndarray) -> float:
    """Modeled makespan of one shard (seconds) for ``"step-aware"``."""
    if shard_sizes.size == 0:
        return 0.0
    return (
        float(shard_work.sum()) / _FLOP_RATE
        + _STEP_COST * float(shard_sizes.max())
        + _PER_ROW_COST * float(shard_sizes.sum())
    )


def _stratified_pieces(order: np.ndarray, work: np.ndarray, n_shards: int) -> list[np.ndarray]:
    """Greedy equal-flops fill of the sorted order into contiguous strata.

    Walks ``order`` (sizes descending) handing each shard matrices until
    it holds its share (remaining work / remaining shards), while always
    leaving at least one matrix per unfilled shard so no shard in the
    middle comes out empty when there are enough matrices to go around.
    """
    count = order.size
    pieces: list[np.ndarray] = []
    start = 0
    for s in range(n_shards):
        left = n_shards - s
        remaining = count - start
        if remaining <= 0:
            pieces.append(np.empty(0, dtype=np.int64))
            continue
        if s == n_shards - 1:
            end = count
        elif remaining <= left:
            end = start + 1
        else:
            target = work[order[start:]].sum() / left
            max_end = count - (left - 1)
            end = start + 1
            acc = work[order[start]]
            while end < max_end and acc < target:
                acc += work[order[end]]
                end += 1
        pieces.append(order[start:end])
        start = end
    return pieces


def _step_aware_pieces(
    order: np.ndarray,
    sizes: np.ndarray,
    work: np.ndarray,
    n_shards: int,
    shard_cost,
) -> list[np.ndarray]:
    """Min-makespan strata of the sorted order, by binary search.

    For a candidate makespan ``T``, greedily pack the sorted order into
    shards whose modeled cost stays <= ``T``; feasible iff everything
    fits in ``n_shards`` shards.  The cost model is monotone in the
    shard contents, so bisecting ``T`` between the heaviest single
    matrix and the whole-batch cost finds the optimal greedy cut.
    """

    def cost(lo: int, hi: int) -> float:
        sl = sizes[order[lo:hi]]
        return shard_cost(sl, work[order[lo:hi]])

    def cut(T: float) -> list[tuple[int, int]] | None:
        bounds = []
        start = 0
        count = order.size
        while start < count:
            if len(bounds) == n_shards:
                return None
            end = start + 1
            while end < count and cost(start, end + 1) <= T:
                end += 1
            bounds.append((start, end))
            start = end
        return bounds

    lo = max(cost(i, i + 1) for i in range(order.size))
    hi = cost(0, order.size)
    best = cut(hi)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        got = cut(mid)
        if got is None:
            lo = mid
        else:
            hi = mid
            best = got
    pieces = [order[a:b] for a, b in best]
    pieces += [np.empty(0, dtype=np.int64)] * (n_shards - len(pieces))
    return pieces


def partition_sizes(
    sizes: np.ndarray,
    precision,
    n_shards: int,
    policy: str = "flops",
    *,
    shard_cost=None,
    routine: str = "potrf",
) -> list[np.ndarray]:
    """Split batch indices into ``n_shards`` per-device index arrays.

    Every index lands in exactly one shard; empty shards are allowed
    (fewer matrices than devices).  Shard index arrays are sorted so a
    shard preserves the original batch order.  ``shard_cost`` (a
    ``(shard_sizes, shard_flops) -> seconds`` callable) overrides the
    built-in cost model of the ``"step-aware"`` policy — a
    :class:`~repro.device.member.ComputeMember`'s calibrated estimate
    slots in here.  ``routine`` selects the per-matrix flop model the
    balancing policies weigh (the op tag of the batch being sharded).
    """
    if n_shards <= 0:
        raise ArgumentError(3, f"n_shards must be positive, got {n_shards}")
    _check_policy(policy)
    sizes = np.asarray(sizes, dtype=np.int64)
    count = sizes.size
    if n_shards == 1:
        return [np.arange(count, dtype=np.int64)]

    if policy == "round-robin":
        return [np.arange(count, dtype=np.int64)[s::n_shards] for s in range(n_shards)]

    flops_of = _flops.routine_flops(routine)
    work = np.array([flops_of(int(n), precision) for n in sizes])
    if policy == "contiguous":
        # Cut the prefix-flops curve at the equal-share levels.
        csum = np.cumsum(work)
        total = csum[-1] if count else 0.0
        bounds = np.searchsorted(csum, total * np.arange(1, n_shards) / n_shards, side="left")
        pieces = np.split(np.arange(count, dtype=np.int64), bounds)
        return [np.asarray(p, dtype=np.int64) for p in pieces]

    if policy in ("size-stratified", "step-aware"):
        if count == 0:
            return [np.empty(0, dtype=np.int64) for _ in range(n_shards)]
        order = np.argsort(-sizes, kind="stable").astype(np.int64)
        if policy == "size-stratified":
            pieces = _stratified_pieces(order, work, n_shards)
        else:
            cost_fn = shard_cost if shard_cost is not None else _default_shard_cost
            pieces = _step_aware_pieces(order, sizes, work, n_shards, cost_fn)
        return [np.sort(p).astype(np.int64) for p in pieces]

    # Greedy LPT: heaviest matrix first onto the least-loaded device.
    loads = np.zeros(n_shards)
    owner = np.empty(count, dtype=np.int64)
    for i in np.argsort(-work, kind="stable"):
        s = int(np.argmin(loads))
        owner[i] = s
        loads[s] += work[i]
    return [np.nonzero(owner == s)[0].astype(np.int64) for s in range(n_shards)]


class DeviceGroup:
    """N simulated devices plus the partition policy that feeds them."""

    def __init__(self, devices, partition: str = "flops"):
        devices = list(devices)
        if not devices:
            raise ArgumentError(1, "device group needs at least one device")
        if len({id(d) for d in devices}) != len(devices):
            raise ArgumentError(1, "device group contains the same device twice")
        _check_policy(partition)
        self.devices = devices
        self.partition = partition

    @classmethod
    def simulated(
        cls,
        count: int,
        spec: DeviceSpec = K40C,
        calibration: Calibration = K40C_CALIBRATION,
        execute_numerics: bool = True,
        partition: str = "flops",
        name_prefix: str | None = None,
    ) -> "DeviceGroup":
        """A homogeneous group of ``count`` fresh simulated devices.

        ``name_prefix`` labels the devices ``{prefix}dev0..N`` so their
        trace tracks group under one serving tier (e.g. per bench
        policy); ``None`` keeps the process-wide default naming.
        """
        if not isinstance(count, numbers.Integral) or count < 1:
            raise ArgumentError(
                1, f"device count must be a positive integer, got {count!r}"
            )
        count = int(count)
        return cls(
            [
                Device(
                    spec=spec,
                    calibration=calibration,
                    execute_numerics=execute_numerics,
                    name=None if name_prefix is None else f"{name_prefix}dev{i}",
                )
                for i in range(count)
            ],
            partition=partition,
        )

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self):
        return iter(self.devices)

    def partition_indices(self, sizes, precision, routine: str = "potrf") -> list[np.ndarray]:
        return partition_sizes(
            sizes, precision, len(self.devices), self.partition, routine=routine
        )

    def reset_clocks(self) -> None:
        for d in self.devices:
            d.reset_clock()

    @property
    def staging_device(self):
        """Device that hosts the source batch for serving callers.

        Duck-typed with :class:`~repro.device.hetero.HeteroGroup` so
        the serving layer treats any group kind uniformly.
        """
        return self.devices[0]

    def sim_now(self) -> float:
        """Latest device clock without draining (serving-loop 'now')."""
        return max(d.host_time for d in self.devices)

    def synchronize(self) -> float:
        """Drain every device; returns the slowest device's clock."""
        return max(d.synchronize() for d in self.devices)
