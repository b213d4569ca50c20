"""Complex-precision coverage (paper §IV-A).

"While we show performance tests for single and double precisions
only, the proposed framework supports complex precisions."  We run the
headline workload in all four precisions and check the physically
mandated relations: c tracks s and z tracks d in pipeline terms, with
the 4x flop weight pushing complex Gflop/s above their real partners
on the same data volume, and z constrained hardest by shared memory.
"""


from repro.core.batch import VBatch
from repro.ops import OpOptions
from repro.core.interface import potrf_vbatched_max
from repro.core.fused import fused_max_feasible_size
from repro.device import Device
from repro.distributions import uniform_sizes

BATCH = 500
NMAX = 256


def run_prec(prec, approach="auto"):
    device = Device(execute_numerics=False)
    b = VBatch.allocate(device, uniform_sizes(BATCH, NMAX, seed=0), prec)
    device.reset_clock()
    return potrf_vbatched_max(device, b, NMAX, OpOptions(approach=approach))


def test_all_four_precisions_run(benchmark):
    def run():
        return {p: run_prec(p) for p in "sdcz"}

    results = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print()
    for p, r in results.items():
        print(f"  {p}: {r.gflops:7.1f} Gflop/s via {r.approach}")
    for r in results.values():
        assert r.gflops > 0
    # Weighted flops make complex rates exceed their real partners on
    # the same matrix orders (4x flops, 2-4x the bytes).
    assert results["c"].gflops > results["s"].gflops
    assert results["z"].gflops > results["d"].gflops
    # The fp64 pipelines bound d and z well below s and c.
    assert results["s"].gflops > results["d"].gflops
    assert results["c"].gflops > results["z"].gflops


def test_shared_memory_bounds_tighten_with_element_size(benchmark):
    def run():
        return {p: fused_max_feasible_size(p) for p in "sdcz"}

    bounds = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert bounds["s"] >= bounds["d"] >= bounds["z"]
    assert bounds["c"] == bounds["d"]  # same 8-byte elements


def test_complex_crossover_behaviour(benchmark):
    """The crossover machinery functions in complex precision too."""

    def run():
        small = run_prec("z", approach="auto")
        device = Device(execute_numerics=False)
        b = VBatch.allocate(device, uniform_sizes(300, 900, seed=0), "z")
        device.reset_clock()
        big = potrf_vbatched_max(device, b, 900, OpOptions(approach="auto"))
        return small, big

    small, big = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert small.approach == "fused"
    assert big.approach in ("fused", "separated")
    assert big.gflops > 0
