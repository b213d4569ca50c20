"""Device-portability bench: the framework on sibling Kepler boards.

The paper's framework is device-agnostic — the kernels read their
limits from the device description.  Re-running the headline workload
on a K20X (fewer, slower SMs, less bandwidth) and a Titan Black
(faster clock, more bandwidth) must reorder throughput accordingly,
and the K20X's smaller 6 GB memory must move the padding-OOM threshold.
"""


from repro.baselines.gpu import run_padding, run_vbatched
from repro.core.batch import VBatch
from repro.ops import OpOptions
from repro.device import Device, K20X, K40C, TITAN_BLACK
from repro.distributions import uniform_sizes
from repro.errors import DeviceOutOfMemory

SPECS = (K20X, K40C, TITAN_BLACK)


def run_on(spec, nmax=512, batch=800, prec="d"):
    device = Device(spec=spec, execute_numerics=False)
    vb = VBatch.allocate(device, uniform_sizes(batch, nmax, seed=0), prec)
    device.reset_clock()
    return run_vbatched(device, vb, nmax, OpOptions()).gflops


def test_throughput_orders_by_hardware(benchmark):
    def run():
        return {spec.name: run_on(spec) for spec in SPECS}

    table = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print()
    for name, g in table.items():
        print(f"  {name:30} {g:7.1f} Gflop/s")
    assert table[TITAN_BLACK.name] > table[K40C.name] > table[K20X.name]
    # Ratios stay within plausible hardware bounds (no runaway scaling).
    assert table[TITAN_BLACK.name] / table[K20X.name] < 1.6


def test_padding_oom_moves_with_memory(benchmark):
    """6 GB boards run out of padded memory earlier than the 12 GB K40c."""

    def attempt(spec, nmax):
        device = Device(spec=spec, execute_numerics=False)
        sizes = uniform_sizes(800, nmax, seed=0)
        try:
            run_padding(device, sizes, nmax, "d")
            return True
        except DeviceOutOfMemory:
            return False

    def run():
        return attempt(K40C, 1024), attempt(K20X, 1024), attempt(K20X, 700)

    k40_1024, k20_1024, k20_700 = benchmark.pedantic(
        run, rounds=1, iterations=1, warmup_rounds=0
    )
    assert k40_1024          # 800 x 1024^2 doubles = 6.25 GiB fits in 12 GiB
    assert not k20_1024      # ... but not in 6 GiB
    assert k20_700           # 2.9 GiB fits in 6 GiB
