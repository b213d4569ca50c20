"""Experiment definitions: one function per paper figure.

Every function runs on the timing plane (``execute_numerics=False`` —
the cost model never reads matrix values, and the functional plane is
covered by the test suite), builds fresh device state per data point,
and returns a :class:`FigureResult` whose series mirror the curves in
the paper.  Paper-scale parameters are the defaults; the pytest
benchmarks pass reduced sweeps where wall-clock budget matters.
"""

from __future__ import annotations

import numpy as np

from .. import distributions as dist
from ..baselines import BASELINES, run_baseline
from ..core.batch import VBatch
from ..core.blas_steps import BlasStepDriver
from ..core.crossover import CrossoverPolicy
from ..core.interface import potrf_vbatched_max
from ..core.fused import FusedDriver, fused_max_feasible_size
from ..core.separated import SeparatedDriver
from ..device import Device
from ..energy import run_energy_experiment
from ..errors import DeviceOutOfMemory, LaunchError
from ..flops import batch_flops, gflops
from ..kernels.aux import compute_max_size
from ..ops.options import OpOptions
from ..types import Precision
from .harness import FigureResult

__all__ = [
    "fig3_distributions",
    "fig4_fusion_fixed",
    "fig5_fused_variants",
    "fig6_fused_variants_gaussian",
    "fig7_crossover",
    "fig8_overall",
    "fig9_overall_gaussian",
    "fig10_energy",
    "aux_interface_overhead",
]

_VARIANTS = (
    ("etm-classic", "classic", False),
    ("etm-aggressive", "aggressive", False),
    ("etm-classic+sorting", "classic", True),
    ("etm-aggressive+sorting", "aggressive", True),
)


def _fresh_batch(sizes, precision) -> tuple[Device, VBatch]:
    device = Device(execute_numerics=False)
    batch = VBatch.allocate(device, sizes, precision)
    device.reset_clock()
    return device, batch


def _run_gflops(sizes, precision, max_n, options: OpOptions) -> float:
    device, batch = _fresh_batch(sizes, precision)
    res = potrf_vbatched_max(device, batch, max_n, options)
    return res.gflops


# ----------------------------------------------------------------------
# Figure 3 — size-distribution histograms
# ----------------------------------------------------------------------
def fig3_distributions(
    batch_count: int = 2000, max_size: int = 512, bin_width: int = 8, seed: int = 0
) -> FigureResult:
    """Histograms of the uniform and Gaussian size generators (§IV-B)."""
    lefts = None
    fig = None
    for name in ("uniform", "gaussian"):
        sizes = dist.generate_sizes(name, batch_count, max_size, seed=seed)
        l, counts = dist.size_histogram(sizes, bin_width=bin_width, max_size=max_size)
        if fig is None:
            lefts = l
            fig = FigureResult(
                "Fig 3", "Matrix-size histograms", "bin_start", list(lefts)
            )
        fig.add(name, counts)
    fig.notes["batch_count"] = batch_count
    fig.notes["max_size"] = max_size
    return fig


# ----------------------------------------------------------------------
# Figure 4 — kernel fusion vs separated BLAS, fixed sizes
# ----------------------------------------------------------------------
def fig4_fusion_fixed(
    precision: Precision | str = Precision.S,
    sizes: tuple[int, ...] = (8, 16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 640, 768),
    batch_count: int = 1000,
) -> FigureResult:
    """Fused kernel vs pre-fusion separated BLAS on fixed-size batches."""
    prec = Precision(precision)
    fused_vals, sep_vals = [], []
    for n in sizes:
        flops = batch_flops([n] * batch_count, "potrf", prec)
        # Fused approach (one kernel per step).
        device, batch = _fresh_batch([n] * batch_count, prec)
        try:
            FusedDriver(device, etm="classic", sorting=False).factorize(batch, n)
            fused_vals.append(gflops(flops, device.synchronize()))
        except LaunchError:
            fused_vals.append(float("nan"))
        # Pre-fusion separated building-block BLAS ([13]-era): two-level
        # blocked driver with the generic global-memory panel kernels.
        device, batch = _fresh_batch([n] * batch_count, prec)
        if n <= 128:
            BlasStepDriver(device).factorize(batch, n)
        else:
            SeparatedDriver(device, panel_mode="naive").factorize(batch, n)
        sep_vals.append(gflops(flops, device.synchronize()))

    fig = FigureResult(
        "Fig 4",
        f"Fused vs separated BLAS, fixed sizes ({prec.value}potrf)",
        "n",
        list(sizes),
    )
    f = fig.add("fused", fused_vals)
    s = fig.add("separated-blas", sep_vals)
    speedups = fig.add("speedup", f.ratio_to(s))
    finite = [v for v in speedups.values if not np.isnan(v)]
    fig.notes["max_speedup"] = max(finite)
    fig.notes["min_speedup"] = min(finite)
    fig.notes["batch_count"] = batch_count
    return fig


# ----------------------------------------------------------------------
# Figures 5/6 — vbatched fused-variant comparison
# ----------------------------------------------------------------------
def _fused_variants(
    distribution: str,
    precision: Precision | str,
    nmax_values: tuple[int, ...],
    batch_count: int,
    seed: int,
    figure: str,
) -> FigureResult:
    prec = Precision(precision)
    fig = FigureResult(
        figure,
        f"vbatched {prec.value}potrf fused variants, {distribution} sizes",
        "max_size",
        list(nmax_values),
    )
    results = {label: [] for label, _, _ in _VARIANTS}
    for nmax in nmax_values:
        sizes = dist.generate_sizes(distribution, batch_count, nmax, seed=seed)
        for label, etm, sorting in _VARIANTS:
            val = _run_gflops(
                sizes, prec, nmax,
                OpOptions(approach="fused", etm=etm, sorting=sorting),
            )
            results[label].append(val)
    for label, _, _ in _VARIANTS:
        fig.add(label, results[label])

    best = fig.get("etm-aggressive+sorting").array
    fig.notes["sorting_gain_classic_max"] = float(
        np.nanmax(fig.get("etm-classic+sorting").array / fig.get("etm-classic").array - 1)
    )
    fig.notes["sorting_gain_aggressive_max"] = float(
        np.nanmax(best / fig.get("etm-aggressive").array - 1)
    )
    fig.notes["aggressive_gain_max"] = float(
        np.nanmax(fig.get("etm-aggressive").array / fig.get("etm-classic").array - 1)
    )
    fig.notes["batch_count"] = batch_count
    return fig


def fig5_fused_variants(
    precision: Precision | str = Precision.S,
    nmax_values: tuple[int, ...] = (32, 64, 96, 128, 192, 256, 320, 384, 448, 512),
    batch_count: int = 3000,
    seed: int = 0,
) -> FigureResult:
    """Four fused-driver versions, uniform distribution (paper Fig 5)."""
    return _fused_variants("uniform", precision, nmax_values, batch_count, seed, "Fig 5")


def fig6_fused_variants_gaussian(
    precision: Precision | str = Precision.S,
    nmax_values: tuple[int, ...] = (32, 64, 96, 128, 192, 256, 320, 384, 448, 512),
    batch_count: int = 3000,
    seed: int = 0,
) -> FigureResult:
    """Four fused-driver versions, Gaussian distribution (paper Fig 6)."""
    return _fused_variants("gaussian", precision, nmax_values, batch_count, seed, "Fig 6")


# ----------------------------------------------------------------------
# Figure 7 — fusion/separation crossover
# ----------------------------------------------------------------------
def fig7_crossover(
    precision: Precision | str = Precision.S,
    nmax_values: tuple[int, ...] = (128, 192, 256, 320, 384, 448, 512, 640, 768, 896, 1024),
    batch_count: int = 800,
    seed: int = 0,
    optimize: str = "none",
) -> FigureResult:
    """Fused vs separated vs the combined switch (paper Fig 7)."""
    prec = Precision(precision)
    fig = FigureResult(
        "Fig 7",
        f"Crossover for vbatched {prec.value}potrf, uniform sizes",
        "max_size",
        list(nmax_values),
    )
    rows = {"fused": [], "separated": [], "switch": []}
    for nmax in nmax_values:
        sizes = dist.uniform_sizes(batch_count, nmax, seed=seed)
        for approach in ("fused", "separated"):
            try:
                rows[approach].append(
                    _run_gflops(
                        sizes, prec, nmax,
                        OpOptions(approach=approach, optimize=optimize),
                    )
                )
            except (LaunchError, DeviceOutOfMemory):
                rows[approach].append(float("nan"))
        rows["switch"].append(
            _run_gflops(sizes, prec, nmax, OpOptions(approach="auto", optimize=optimize))
        )
    for label in ("fused", "separated", "switch"):
        fig.add(label, rows[label])
    fig.notes["configured_crossover"] = CrossoverPolicy(prec).resolved_crossover()
    fig.notes["fused_feasible_max"] = fused_max_feasible_size(prec)
    fig.notes["batch_count"] = batch_count
    return fig


# ----------------------------------------------------------------------
# Figures 8/9 — overall comparison against all baselines
# ----------------------------------------------------------------------
def _overall(
    distribution: str,
    precision: Precision | str,
    nmax_values: tuple[int, ...],
    batch_count: int,
    seed: int,
    figure: str,
) -> FigureResult:
    prec = Precision(precision)
    fig = FigureResult(
        figure,
        f"Overall vbatched {prec.value}potrf vs baselines, {distribution} sizes",
        "max_size",
        list(nmax_values),
    )
    rows = {name: [] for name in BASELINES}
    for nmax in nmax_values:
        sizes = dist.generate_sizes(distribution, batch_count, nmax, seed=seed)
        for name in BASELINES:
            try:
                rows[name].append(run_baseline(name, sizes, prec, nmax).gflops)
            except DeviceOutOfMemory:
                # The padding baseline genuinely runs out of device
                # memory — the truncated curves of Figs 8-9.
                rows[name].append(float("nan"))
    for name in BASELINES:
        fig.add(name, rows[name])

    vb = fig.get("magma-vbatched").array
    competitor = np.nanmax(
        np.vstack([
            fig.get("cpu-1core-dynamic").array,
            fig.get("cpu-1core-static").array,
            fig.get("cpu-mkl-mt").array,
        ]),
        axis=0,
    )
    ratios = vb / competitor
    fig.notes["speedup_vs_best_competitor_min"] = float(np.nanmin(ratios))
    fig.notes["speedup_vs_best_competitor_max"] = float(np.nanmax(ratios))
    pad = fig.get("fixed-batched+padding").array
    fig.notes["speedup_vs_padding_max"] = float(np.nanmax(vb / pad))
    fig.notes["padding_oom_points"] = int(np.count_nonzero(np.isnan(pad)))
    fig.notes["batch_count"] = batch_count
    return fig


def fig8_overall(
    precision: Precision | str = Precision.S,
    nmax_values: tuple[int, ...] = (128, 256, 384, 512, 768, 1000, 1500, 2000),
    batch_count: int = 800,
    seed: int = 0,
) -> FigureResult:
    """Overall performance, uniform distribution (paper Fig 8)."""
    return _overall("uniform", precision, nmax_values, batch_count, seed, "Fig 8")


def fig9_overall_gaussian(
    precision: Precision | str = Precision.S,
    nmax_values: tuple[int, ...] = (128, 256, 384, 512, 768, 1000, 1500, 2000),
    batch_count: int = 800,
    seed: int = 0,
) -> FigureResult:
    """Overall performance, Gaussian distribution (paper Fig 9)."""
    return _overall("gaussian", precision, nmax_values, batch_count, seed, "Fig 9")


# ----------------------------------------------------------------------
# Figure 10 — energy to solution
# ----------------------------------------------------------------------
def fig10_energy(
    buckets: tuple[tuple[int, int, int], ...] = (
        (16, 64, 10000),
        (32, 128, 5000),
        (64, 256, 3000),
        (128, 256, 2000),
        (256, 512, 1000),
        (384, 768, 700),
        (512, 1024, 500),
        (768, 1024, 300),
    ),
    precision: Precision | str = Precision.D,
    seed: int = 0,
) -> FigureResult:
    """CPU vs GPU energy to solution for dpotrf workloads (paper Fig 10)."""
    labels, cpu_j, gpu_j, ratios = [], [], [], []
    for lo, hi, count in buckets:
        comp = run_energy_experiment(lo, hi, count, precision, seed=seed)
        labels.append(comp.workload)
        cpu_j.append(comp.cpu.joules)
        gpu_j.append(comp.gpu.joules)
        ratios.append(comp.energy_ratio)
    fig = FigureResult(
        "Fig 10", "Energy to solution, CPU vs GPU (dpotrf)", "workload", labels
    )
    fig.add("cpu_joules", cpu_j)
    fig.add("gpu_joules", gpu_j)
    fig.add("cpu_over_gpu", ratios)
    fig.notes["max_energy_ratio"] = max(ratios)
    fig.notes["min_energy_ratio"] = min(ratios)
    return fig


# ----------------------------------------------------------------------
# §III-A — interface overhead of computing the max on the device
# ----------------------------------------------------------------------
def aux_interface_overhead(
    precision: Precision | str = Precision.D,
    nmax: int = 256,
    batch_count: int = 2000,
    seed: int = 0,
) -> FigureResult:
    """Overhead of the LAPACK-like interface's device max-reduction."""
    prec = Precision(precision)
    sizes = dist.uniform_sizes(batch_count, nmax, seed=seed)

    device, batch = _fresh_batch(sizes, prec)
    t0 = device.synchronize()
    max_n = compute_max_size(device, batch)
    overhead = device.synchronize() - t0
    res = potrf_vbatched_max(device, batch, max_n, OpOptions())
    total = overhead + res.elapsed

    fig = FigureResult(
        "Aux", "LAPACK-like interface overhead (§III-A)", "quantity",
        ["max_reduction_seconds", "factorization_seconds", "overhead_fraction"],
    )
    fig.add("value", [overhead, res.elapsed, overhead / total])
    fig.notes["batch_count"] = batch_count
    fig.notes["max_size"] = nmax
    return fig
