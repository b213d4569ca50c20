"""§III-A: overhead of the LAPACK-like interface's max computation.

"The latter wraps the first interface and calls GPU kernels to compute
these maximums.  In most cases, the overhead of computing the maximum
is negligible."
"""


from repro.bench.figures import aux_interface_overhead
from repro.core import OpOptions, VBatch, potrf_vbatched, potrf_vbatched_max
from repro.device import Device
from repro.distributions import uniform_sizes


def test_aux_overhead_negligible(benchmark, figure_runner):
    fig = figure_runner(
        benchmark, aux_interface_overhead, "d", nmax=256, batch_count=2000
    )
    fraction = fig.get("value").values[2]
    assert fraction < 0.02  # under 2% of the whole factorization


def test_both_interfaces_agree(benchmark):
    """The wrapping interface must behave exactly like the expert one."""
    sizes = uniform_sizes(500, 128, seed=3)

    def run_pair():
        dev_a = Device(execute_numerics=False)
        batch_a = VBatch.allocate(dev_a, sizes, "d")
        dev_a.reset_clock()
        auto = potrf_vbatched(dev_a, batch_a, OpOptions())

        dev_b = Device(execute_numerics=False)
        batch_b = VBatch.allocate(dev_b, sizes, "d")
        dev_b.reset_clock()
        expert = potrf_vbatched_max(dev_b, batch_b, int(sizes.max()), OpOptions())
        return auto, expert

    auto, expert = benchmark.pedantic(run_pair, rounds=1, iterations=1, warmup_rounds=0)
    assert auto.approach == expert.approach
    assert auto.max_n == expert.max_n
    # The LAPACK-like path pays only the tiny reduction+download on top.
    assert auto.elapsed <= expert.elapsed * 1.05
