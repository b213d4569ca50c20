"""Heterogeneous device groups: cost-driven placement + work-stealing.

:class:`~repro.device.topology.DeviceGroup` shards one batch across
*identical* simulated GPUs with a single global planner approach — and
BENCH_pr2 shows why that stalls at ~2.15x on 8 devices: every
flops-balanced shard keeps a near-``max_n`` matrix, so every shard pays
the global step count.  :class:`HeteroGroup` replaces both assumptions:

* **members, not devices** — anything implementing
  :class:`~repro.device.member.ComputeMember` (unequal GPU specs, the
  CPU core model) coexists in one group;
* **size-stratified chunks** — the batch is cut along the sorted-size
  axis into ``chunks_per_member x len(members)`` strata, so most chunks
  have a *small* ``max_n`` and a short step count;
* **calibrated placement** — each chunk goes to the member minimizing
  its predicted finish time (member's projected clock + that member's
  cost estimate for the chunk), and each member picks its own planner
  approach per chunk (fused for many-small, separated for few-large);
* **work-stealing at chunk boundaries** — the virtual-time execution
  loop lets an idle member steal the tail chunk of the most-backlogged
  member's queue whenever that finishes the work earlier than the
  victim would.

The group owns the chunking and the placement decision
(:meth:`HeteroGroup.assign`); the op driver's
:func:`~repro.ops.driver.run_op_hetero` runs the placed chunks, for
every op, in one virtual-time loop.  Every decision is recorded: a
``hetero-place`` trace span carries the chunk->member assignment with
cost estimates, each executed chunk gets a ``hetero-chunk`` span on the
member's track, steals emit instants, and the
:class:`~repro.ops.driver.OpResult` carries per-member
:class:`~repro.device.executor.MemberStats` plus the placement table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ArgumentError
from .calibration import K40C_CALIBRATION
from .device import Device
from .member import ComputeMember, CpuMember, GpuMember
from .spec import DeviceSpec, K20X, K40C, TITAN_BLACK

__all__ = ["HeteroGroup", "parse_members"]

#: Chunking policies a :class:`HeteroGroup` accepts — the same
#: sorted-order stratifiers as :func:`repro.device.topology.partition_sizes`.
_PLACEMENTS = ("size-stratified", "step-aware")

#: GPU spec vocabulary for :func:`parse_members` member strings.
_GPU_SPECS: dict[str, DeviceSpec] = {
    "k40c": K40C,
    "k20x": K20X,
    "titan-black": TITAN_BLACK,
    "titanblack": TITAN_BLACK,
}


@dataclass
class _Chunk:
    """One stratum of the sorted batch, queued on a member."""

    ordinal: int
    idx: np.ndarray  # source-batch indices, ascending
    member: str
    approach: str
    est: float  # owner's predicted seconds
    alternatives: dict = field(default_factory=dict)  # member -> est


class HeteroGroup:
    """Compute members plus the placement policy that feeds them.

    ``placement`` picks the stratifier that cuts the sorted batch into
    chunks; ``chunks_per_member`` controls granularity — more chunks
    mean finer placement and stealing but more per-chunk fixed cost
    (each chunk re-pays the planner's step sequence for its own
    ``max_n``), so homogeneous groups run fastest at 1 while unequal
    groups want 2+ for the cost model to route around slow members;
    ``steal=False`` freezes the initial assignment (useful to measure
    what stealing buys).
    """

    def __init__(
        self,
        members,
        placement: str = "size-stratified",
        chunks_per_member: int = 2,
        steal: bool = True,
    ):
        members = list(members)
        if not members:
            raise ArgumentError(1, "hetero group needs at least one member")
        for m in members:
            if not isinstance(m, ComputeMember):
                raise ArgumentError(
                    1, f"hetero group members must be ComputeMembers, got {type(m).__name__}"
                )
        names = [m.name for m in members]
        if len(set(names)) != len(names):
            raise ArgumentError(1, f"duplicate member names in group: {sorted(names)}")
        if placement not in _PLACEMENTS:
            raise ArgumentError(
                2, f"unknown placement policy {placement!r} (use one of {_PLACEMENTS})"
            )
        if int(chunks_per_member) < 1:
            raise ArgumentError(
                3, f"chunks_per_member must be >= 1, got {chunks_per_member}"
            )
        self.members = members
        self.placement = placement
        self.chunks_per_member = int(chunks_per_member)
        self.steal = bool(steal)
        self._staging: Device | None = None

    @classmethod
    def simulated(
        cls,
        spec: str,
        *,
        execute_numerics: bool = True,
        placement: str = "size-stratified",
        chunks_per_member: int = 2,
        steal: bool = True,
        name_prefix: str = "",
    ) -> "HeteroGroup":
        """Build a group from a member spec string (see :func:`parse_members`)."""
        return cls(
            parse_members(
                spec, execute_numerics=execute_numerics, name_prefix=name_prefix
            ),
            placement=placement,
            chunks_per_member=chunks_per_member,
            steal=steal,
        )

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @property
    def gpu_members(self) -> list[GpuMember]:
        return [m for m in self.members if m.kind == "gpu"]

    @property
    def cpu_members(self) -> list[CpuMember]:
        return [m for m in self.members if m.kind == "cpu"]

    @property
    def devices(self) -> list[Device]:
        """The simulated GPU devices in the group (may be empty)."""
        return [m.device for m in self.gpu_members]

    @property
    def staging_device(self) -> Device:
        """Device that hosts the source batch for serving callers.

        The first GPU member's device; an all-CPU group gets a
        dedicated staging device whose clock nothing here advances.
        """
        gpus = self.gpu_members
        if gpus:
            return gpus[0].device
        if self._staging is None:
            self._staging = Device(execute_numerics=True, name="hetero:staging")
        return self._staging

    def sim_now(self) -> float:
        """Latest member clock (no drain) — the serving loop's 'now'."""
        return max(m.now() for m in self.members)

    def synchronize(self) -> float:
        return max(m.synchronize() for m in self.members)

    def reset_clocks(self) -> None:
        for m in self.members:
            m.reset_clock()
        if self._staging is not None:
            self._staging.reset_clock()

    # -- placement ------------------------------------------------------
    def chunk_indices(self, sizes, precision) -> list[np.ndarray]:
        """Cut the batch into sorted-size strata (largest-first)."""
        from .topology import partition_sizes

        sizes = np.asarray(sizes, dtype=np.int64)
        n_chunks = max(1, min(sizes.size, self.chunks_per_member * len(self.members)))
        parts = partition_sizes(sizes, precision, n_chunks, self.placement)
        return [p for p in parts if p.size]

    def assign(self, sizes, precision, options, op: str = "potrf") -> dict[str, list[_Chunk]]:
        """Greedy earliest-finish placement of every chunk of ``op``.

        Chunks come largest-stratum-first; each lands on the member
        (among those that run ``op``) whose projected clock plus *its
        own* calibrated estimate for the chunk is smallest.  Member
        approach choice happens here too, so the decision record shows
        both where and how each bucket runs.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        members = [m for m in self.members if m.supports(op)]
        queues: dict[str, list[_Chunk]] = {m.name: [] for m in members}
        projected = {m.name: 0.0 for m in members}
        for ordinal, idx in enumerate(self.chunk_indices(sizes, precision)):
            chunk_sizes = sizes[idx]
            bids = {}
            for m in members:
                approach = m.choose_approach(chunk_sizes, precision, options, op)
                est = m.estimate_cost(chunk_sizes, precision, approach, op)
                bids[m.name] = (approach, est)
            winner = min(
                members,
                key=lambda m: (projected[m.name] + bids[m.name][1], m.name),
            )
            approach, est = bids[winner.name]
            projected[winner.name] += est
            queues[winner.name].append(
                _Chunk(
                    ordinal=ordinal,
                    idx=idx,
                    member=winner.name,
                    approach=approach,
                    est=est,
                    alternatives={n: b[1] for n, b in bids.items()},
                )
            )
        return queues


def parse_members(
    spec: str, *, execute_numerics: bool = True, name_prefix: str = ""
) -> list[ComputeMember]:
    """Parse a ``--members`` spec string into compute members.

    Grammar: ``token(+token)*`` (``,`` also separates), where a token is
    ``NAME``, ``NAME*COUNT`` or ``cpu:CORES``.  GPU names: ``k40c``,
    ``k20x``, ``titan-black``.  Examples::

        "k40c*8"                 8 identical K40c members
        "k40c+k20x+cpu"          two unequal GPUs plus the 16-core CPU
        "k40c*2+cpu:8"           two K40c plus an 8-core CPU slice
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ArgumentError(4, f"empty member spec {spec!r}")
    members: list[ComputeMember] = []
    counters: dict[str, int] = {}
    for token in spec.replace(",", "+").split("+"):
        token = token.strip().lower()
        if not token:
            continue
        count = 1
        if "*" in token:
            token, _, count_s = token.partition("*")
            token = token.strip()
            try:
                count = int(count_s)
            except ValueError:
                raise ArgumentError(4, f"bad member count in {token!r}*{count_s!r}") from None
            if count < 1:
                raise ArgumentError(4, f"member count must be >= 1, got {count}")
        cores = None
        if token.startswith("cpu"):
            base, _, cores_s = token.partition(":")
            if base != "cpu":
                raise ArgumentError(4, f"unknown member {token!r}")
            if cores_s:
                try:
                    cores = int(cores_s)
                except ValueError:
                    raise ArgumentError(4, f"bad cpu core count {cores_s!r}") from None
            token = "cpu"
        elif token not in _GPU_SPECS:
            known = sorted(set(_GPU_SPECS)) + ["cpu", "cpu:CORES"]
            raise ArgumentError(4, f"unknown member {token!r} (use one of {known})")
        for _ in range(count):
            i = counters.get(token, 0)
            counters[token] = i + 1
            name = f"{name_prefix}{token}{i}"
            if token == "cpu":
                members.append(CpuMember(cores=cores, name=name))
            else:
                members.append(
                    GpuMember(
                        spec=_GPU_SPECS[token],
                        calibration=K40C_CALIBRATION,
                        execute_numerics=execute_numerics,
                        name=name,
                    )
                )
    if not members:
        raise ArgumentError(4, f"member spec {spec!r} names no members")
    return members
