"""The POTRF planner choice and the launch accounting every driver shares.

The factorization itself runs through the one op driver,
:func:`repro.ops.driver.run_op_vbatched` (the public interface in
:mod:`repro.core.interface` calls it with the ``"potrf"`` tag), with
the one :class:`~repro.ops.options.OpOptions` type.  This module keeps
what is POTRF's own and what the driver folds results into:

* :func:`make_planner` — the approach (paper §III-F) picks the
  *planner* (:class:`~repro.core.fused.FusedDriver` /
  :class:`~repro.core.separated.SeparatedDriver`) the op registry's
  POTRF entry hands the batch to;
* :class:`LaunchStats` and :func:`stats_from_execution` — the typed
  launch counters of one run, merged across shards, chunks and
  retries.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .fused import FusedDriver
from .separated import SeparatedDriver

__all__ = ["LaunchStats", "make_planner", "stats_from_execution"]


@dataclass
class LaunchStats:
    """Typed launch accounting for one driver run.

    Structural counts (``steps``, per-category launches) come from the
    planner; execution counts (``executed_launches``, ``barriers``) are
    populated by the :class:`~repro.device.executor.PlanExecutor` that
    actually walked the DAG.  Behaves as a mapping for backward
    compatibility with the old ad-hoc dict (``stats["steps"]``,
    ``{**stats}``).

    ``batches`` counts the plan executions folded into this object (one
    per single-device run, one per shard for a sharded run, summed under
    :meth:`merge`), and ``plan_cache_hits``/``plan_cache_misses`` carry
    :class:`~repro.core.plan.PlanCache` effectiveness — both stay zero
    when no cache is in play, so serving metrics and ``profile`` output
    can report cache behaviour without reaching into private state.

    The trace/metric counters ride the same merge semantics (plain sums
    with a zero identity): ``plan_builds`` counts runs that actually
    invoked a planner (cache miss or cache-less), ``event_waits`` and
    ``events_recorded`` carry the executor's cross-stream
    synchronization traffic.
    """

    steps: int = 0
    aux_launches: int = 0
    fused_launches: int = 0
    potf2_launches: int = 0
    trsm_launches: int = 0
    syrk_launches: int = 0
    gemm_launches: int = 0
    #: Mixed-operation tags: panel factorizations (getf2/geqr2 and the
    #: SVD finalize), pivot row swaps, and Jacobi sweeps.  Zero for
    #: POTRF runs, so POTRF merge/publish behaviour is unchanged.
    panel_launches: int = 0
    swap_launches: int = 0
    sweep_launches: int = 0
    executed_launches: int = 0
    barriers: int = 0
    event_waits: int = 0
    events_recorded: int = 0
    plan_nodes: int = 0
    plan_builds: int = 0
    plan_cache_hit: bool = False
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    batches: int = 0
    opt_barriers_elided: int = 0
    opt_launches_merged: int = 0
    opt_launches_pruned: int = 0
    #: Heterogeneous-group accounting: chunks executed across members
    #: and how many of them were work-stolen (zero on homogeneous runs).
    chunks: int = 0
    work_steals: int = 0
    devices_used: int = 1

    def keys(self):
        return [f.name for f in fields(self)]

    def __getitem__(self, name: str):
        try:
            return getattr(self, name)
        except AttributeError:
            raise KeyError(name) from None

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.keys()}

    #: Counters describing the *logical* batch (what was asked for), as
    #: opposed to physical execution work.  A retried batch re-executes
    #: launches but is still the same batch with the same plan-cache
    #: lookup story; keyed merges add these once per key.
    LOGICAL_FIELDS = (
        "steps",
        "plan_nodes",
        "plan_builds",
        "plan_cache_hits",
        "plan_cache_misses",
        "batches",
    )

    def merge(self, other: "LaunchStats", key=None) -> None:
        """Accumulate another run's counters into this one.

        Counter fields add and ``devices_used`` (the accumulator's own
        bookkeeping) is left untouched.  ``plan_cache_hit`` and-folds
        across merged runs, but a fresh accumulator (``batches == 0``)
        adopts the first merged value — so ``LaunchStats()`` is a merge
        identity and repeated merges associate.

        ``key`` (hashable) makes merges *idempotent per logical batch*:
        the first merge under a key adds everything, every later merge
        under the same key — a partially-failed sharded run retried on
        another replica — adds only the physical execution counters
        (launches, barriers, event traffic) and skips
        :data:`LOGICAL_FIELDS`, so ``batches`` and the plan-cache
        hit/miss totals count each logical batch exactly once.
        """
        retry = False
        if key is not None:
            seen = getattr(self, "_merge_keys", None)
            if seen is None:
                seen = self._merge_keys = set()
            retry = key in seen
            seen.add(key)
        if not retry and (other.batches or self.batches == 0):
            self.plan_cache_hit = (
                other.plan_cache_hit
                if self.batches == 0
                else self.plan_cache_hit and other.plan_cache_hit
            )
        for f in fields(self):
            if f.name in ("plan_cache_hit", "devices_used"):
                continue
            if retry and f.name in self.LOGICAL_FIELDS:
                continue
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def publish(self, registry, prefix: str = "driver") -> None:
        """Snapshot every counter into a metrics registry (gauge set,
        idempotent — re-publish freely after each merge)."""
        for f in fields(self):
            value = getattr(self, f.name)
            registry.gauge(f"{prefix}_{f.name}", f"driver {f.name}").set(
                float(value) if not isinstance(value, bool) else float(int(value))
            )


def make_planner(device, approach: str, options):
    """The planner for a resolved (non-auto) approach, configured from
    :class:`~repro.ops.options.OpOptions` with POTRF's defaults
    resolved."""
    if approach == "fused":
        return FusedDriver(device, etm=options.etm, sorting=options.sorting, nb=options.nb)
    return SeparatedDriver(
        device,
        panel_nb=options.panel_nb,
        inner_nb=options.nb,
        syrk_mode=options.syrk_mode,
    )


def stats_from_execution(plan, exec_stats, cache_hit: bool | None) -> LaunchStats:
    """Fold planner structure and executor counts into a LaunchStats.

    ``cache_hit`` is ``None`` when no :class:`~repro.core.plan.PlanCache`
    was consulted (both cache counters stay zero), else the hit/miss
    outcome of this run's plan lookup.
    """
    run = plan.run_stats
    opt = plan.meta.get("optimizer", {})
    return LaunchStats(
        steps=getattr(run, "steps", 0),
        aux_launches=exec_stats.count("aux"),
        fused_launches=exec_stats.count("fused"),
        potf2_launches=exec_stats.count("potf2"),
        trsm_launches=exec_stats.count("trsm"),
        syrk_launches=exec_stats.count("syrk"),
        gemm_launches=exec_stats.count("gemm"),
        panel_launches=exec_stats.count("panel"),
        swap_launches=exec_stats.count("swap"),
        sweep_launches=exec_stats.count("sweep"),
        executed_launches=exec_stats.launches,
        barriers=exec_stats.barriers,
        event_waits=exec_stats.event_waits,
        events_recorded=exec_stats.events_recorded,
        plan_nodes=len(plan),
        plan_builds=0 if cache_hit else 1,
        plan_cache_hit=bool(cache_hit),
        plan_cache_hits=1 if cache_hit else 0,
        plan_cache_misses=1 if cache_hit is False else 0,
        batches=1,
        opt_barriers_elided=int(opt.get("barriers_elided", 0)),
        opt_launches_merged=int(opt.get("launches_merged", 0)),
        opt_launches_pruned=int(opt.get("launches_pruned", 0)),
    )
