"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation switches one modeled mechanism off (via calibration
overrides or driver knobs) and checks that the mechanism carries the
effect attributed to it — i.e. the figures' shapes come from modeled
causes, not accidental constants.
"""


from repro.core.batch import VBatch
from repro.ops import OpOptions
from repro.core.interface import potrf_vbatched_max
from repro.core.fused import FusedDriver
from repro.device import Device, K40C_CALIBRATION
from repro.distributions import gaussian_sizes, uniform_sizes
from repro.flops import batch_flops, gflops

BATCH = 2000
NMAX = 512


def run_fused(calibration, etm, sorting, dist=gaussian_sizes, window_width=None, prec="d"):
    device = Device(calibration=calibration, execute_numerics=False)
    sizes = dist(BATCH, NMAX, seed=0)
    batch = VBatch.allocate(device, sizes, prec)
    device.reset_clock()
    FusedDriver(device, etm=etm, sorting=sorting, window_width=window_width).factorize(batch, NMAX)
    return gflops(batch_flops(sizes, "potrf", prec), device.synchronize())


def sorting_gain(calibration):
    base = run_fused(calibration, "classic", False)
    srt = run_fused(calibration, "classic", True)
    return srt / base - 1.0


def test_ablate_warp_memory_cap(benchmark):
    """Without the per-warp DRAM cap, unsorted launches lose less
    bandwidth, so implicit sorting buys less."""

    def run():
        with_cap = sorting_gain(K40C_CALIBRATION)
        no_cap = sorting_gain(K40C_CALIBRATION.with_overrides(warp_mem_bandwidth=1e15))
        return with_cap, no_cap

    with_cap, no_cap = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert with_cap > 0
    assert with_cap >= no_cap - 0.02


def test_ablate_etm_termination_cost(benchmark):
    """Free block termination shrinks (never grows) the sorting gain:
    part of what sorting removes is the dead-block dispatch tax."""

    def run():
        normal = sorting_gain(K40C_CALIBRATION)
        free_etm = sorting_gain(K40C_CALIBRATION.with_overrides(etm_terminate_overhead=0.0))
        return normal, free_etm

    normal, free_etm = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert normal >= free_etm - 0.02


def test_ablate_classic_idle_penalty(benchmark):
    """ETM-aggressive's edge over classic comes from the idle-warp
    penalty: zero the penalty and the gap collapses."""

    def gap(calibration):
        classic = run_fused(calibration, "classic", False)
        aggressive = run_fused(calibration, "aggressive", False)
        return aggressive / classic - 1.0

    def run():
        return gap(K40C_CALIBRATION), gap(K40C_CALIBRATION.with_overrides(classic_idle_warp_penalty=0.0))

    with_pen, without = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert with_pen > 0.05
    assert without < with_pen / 2


def test_ablate_window_width(benchmark):
    """Degenerate windows (one giant window) forfeit most of sorting's
    benefit: the window scheduler needs genuine size partitioning."""

    def run():
        tuned = run_fused(K40C_CALIBRATION, "classic", True)
        degenerate = run_fused(K40C_CALIBRATION, "classic", True, window_width=10**6)
        unsorted = run_fused(K40C_CALIBRATION, "classic", False)
        return tuned, degenerate, unsorted

    tuned, degenerate, unsorted = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert tuned > degenerate * 0.98
    # One giant window still removes dead blocks, so it sits between.
    assert degenerate >= unsorted * 0.95


def test_ablate_crossover_policy(benchmark):
    """Forcing the wrong approach at a far-off size must lose to auto."""

    def run_point(nmax, approach):
        device = Device(execute_numerics=False)
        sizes = uniform_sizes(800, nmax, seed=0)
        batch = VBatch.allocate(device, sizes, "d")
        device.reset_clock()
        res = potrf_vbatched_max(device, batch, nmax, OpOptions(approach=approach))
        return res.gflops

    def run():
        small_auto = run_point(128, "auto")
        small_sep = run_point(128, "separated")
        big_auto = run_point(1000, "auto")
        big_fused = run_point(1000, "fused")
        return small_auto, small_sep, big_auto, big_fused

    small_auto, small_sep, big_auto, big_fused = benchmark.pedantic(
        run, rounds=1, iterations=1, warmup_rounds=0
    )
    assert small_auto > small_sep
    assert big_auto > big_fused
