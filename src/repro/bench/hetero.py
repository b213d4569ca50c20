"""Heterogeneous-group benchmark: scaling + mixed-member placement.

Two headline questions, answered on the fig3 workload (uniform sizes,
timing plane only):

* **Scaling** — does cost-model placement over size-stratified chunks
  beat the flops-balanced homogeneous sharder?  ``BENCH_pr2`` topped
  out at ~2.15x on 8 identical K40c; every flops-balanced shard kept a
  near-``max_n`` matrix and re-paid the full step sequence.  Strata
  give most chunks a small ``max_n``, and per-chunk approach selection
  runs the large tail under the separated planner.
* **Heterogeneity** — does a mixed group (unequal GPUs plus the CPU
  core model) beat its best member running alone?  If placement is
  doing its job the answer must be yes: the group's makespan is the
  point of the whole abstraction.

``run_hetero_bench`` produces the JSON report the ``hetero-bench`` CLI
prints; the CI ``hetero-smoke`` job checks its full run against the
committed ``BENCH_pr7.json``.  ``check_hetero_acceptance`` returns the
failure list the CLI turns into a non-zero exit.
"""

from __future__ import annotations

import numpy as np

from ..core.batch import VBatch
from ..core.interface import potrf_vbatched_max
from ..device.device import Device
from ..device.hetero import HeteroGroup
from ..distributions import uniform_sizes
from ..ops.options import OpOptions
from ..types import Precision

__all__ = ["check_hetero_acceptance", "run_hetero_bench"]

#: Homogeneous scaling must reach this on 8 devices (BENCH_pr2: 2.15x).
SCALING_TARGET_8DEV = 3.5

DEFAULT_MEMBERS = "k40c+k20x+titan-black+cpu"


def _run_group(group: HeteroGroup, sizes: np.ndarray, prec: Precision):
    """One timing-plane run of ``sizes`` across ``group``."""
    staging = Device(execute_numerics=False, name="bench:staging")
    batch = VBatch.allocate(staging, sizes, prec)
    try:
        return potrf_vbatched_max(
            staging, batch, int(sizes.max()), OpOptions(), devices=group
        )
    finally:
        batch.free()


def _single_device_time(sizes: np.ndarray, prec: Precision, approach: str) -> float:
    """Elapsed of the whole batch on one K40c under one global approach."""
    dev = Device(execute_numerics=False, name=f"bench:solo-{approach}")
    batch = VBatch.allocate(dev, sizes, prec)
    try:
        result = potrf_vbatched_max(
            dev, batch, int(sizes.max()), OpOptions(approach=approach)
        )
        return float(result.elapsed)
    finally:
        batch.free()


def _solo_tokens(members: str) -> list[str]:
    """Distinct member kinds in a spec string (counts stripped)."""
    tokens: list[str] = []
    for token in members.replace(",", "+").split("+"):
        token = token.partition("*")[0].strip().lower()
        if token and token not in tokens:
            tokens.append(token)
    return tokens


def run_hetero_bench(
    *,
    batch_count: int = 400,
    max_size: int = 256,
    seed: int = 11,
    precision: Precision | str = Precision.D,
    members: str = DEFAULT_MEMBERS,
    device_counts: tuple[int, ...] = (1, 2, 4, 8),
    placements: tuple[str, ...] = ("size-stratified", "step-aware"),
    chunks_per_member: int = 1,
    smoke: bool = False,
) -> dict:
    """Benchmark heterogeneous placement on the fig3 workload.

    ``smoke`` trims the sweep to what the CI gate asserts (the 8-device
    homogeneous point under size-stratified placement, plus the mixed
    group vs. its solos) without changing the workload itself.
    ``chunks_per_member=1`` is deliberate: every extra chunk re-pays
    the planner's per-``max_n`` step sequence, so coarse placement wins
    whenever the cost model routes well (see HeteroGroup's docstring).
    """
    prec = Precision(precision)
    sizes = uniform_sizes(batch_count, max_size, seed=seed)
    if smoke:
        device_counts = tuple(n for n in device_counts if n in (1, 8)) or (8,)
        placements = ("size-stratified",)

    baseline = {
        approach: _single_device_time(sizes, prec, approach)
        for approach in ("fused", "separated")
    }
    t1 = min(baseline.values())

    scaling: dict[str, dict] = {}
    for placement in placements:
        rows: dict[str, dict] = {}
        for n in device_counts:
            group = HeteroGroup.simulated(
                f"k40c*{n}",
                execute_numerics=False,
                placement=placement,
                chunks_per_member=chunks_per_member,
                name_prefix=f"bench:{placement}:{n}x:",
            )
            result = _run_group(group, sizes, prec)
            rows[str(n)] = {
                "elapsed_s": float(result.elapsed),
                "speedup": t1 / float(result.elapsed),
                "chunks": int(result.launch_stats.chunks),
                "work_steals": int(result.launch_stats.work_steals),
                "approaches": result.approach,
            }
        scaling[placement] = rows

    mixed_group = HeteroGroup.simulated(
        members,
        execute_numerics=False,
        chunks_per_member=chunks_per_member,
        name_prefix="bench:mixed:",
    )
    mixed = _run_group(mixed_group, sizes, prec)
    solos: dict[str, float] = {}
    for token in _solo_tokens(members):
        solo_group = HeteroGroup.simulated(
            token,
            execute_numerics=False,
            chunks_per_member=chunks_per_member,
            name_prefix="bench:solo:",
        )
        solos[token] = float(_run_group(solo_group, sizes, prec).elapsed)
    best_solo = min(solos, key=solos.get)

    report = {
        "bench": "hetero-bench",
        "config": {
            "batch_count": int(batch_count),
            "max_size": int(max_size),
            "seed": int(seed),
            "precision": prec.value,
            "members": members,
            "chunks_per_member": int(chunks_per_member),
            "smoke": bool(smoke),
        },
        "baseline_1dev_s": {**{k: float(v) for k, v in baseline.items()}, "t1": float(t1)},
        "scaling": scaling,
        "mixed": {
            "members": members,
            "elapsed_s": float(mixed.elapsed),
            "solos_s": {k: float(v) for k, v in sorted(solos.items())},
            "best_solo": best_solo,
            "speedup_vs_best_solo": solos[best_solo] / float(mixed.elapsed),
            "work_steals": int(mixed.launch_stats.work_steals),
            "placement": mixed.placement,
            "member_stats": [ms.as_dict() for ms in mixed.member_stats],
        },
    }
    report["acceptance"] = {"failures": check_hetero_acceptance(report)}
    return report


def check_hetero_acceptance(report: dict) -> list[str]:
    """The two claims the CI ``hetero-smoke`` gate holds this PR to."""
    failures = []
    rows = report["scaling"].get("size-stratified", {})
    row = rows.get("8")
    if row is None:
        failures.append("scaling sweep has no 8-device size-stratified point")
    elif row["speedup"] < SCALING_TARGET_8DEV:
        failures.append(
            f"8-device size-stratified speedup {row['speedup']:.2f}x "
            f"< target {SCALING_TARGET_8DEV}x"
        )
    mixed = report["mixed"]
    best = mixed["best_solo"]
    if mixed["elapsed_s"] >= mixed["solos_s"][best]:
        failures.append(
            f"mixed group ({mixed['members']}) at {mixed['elapsed_s'] * 1e3:.4f} ms "
            f"does not beat best solo member {best} "
            f"at {mixed['solos_s'][best] * 1e3:.4f} ms"
        )
    return failures
