"""The plan/execute split must not move the simulated clock at all.

These constants are the *exact* elapsed times the eager (pre-plan)
drivers produced for a fixed workload.  `Device.launch` timing depends
only on the kernel sequence, launch order and stream assignment, so
planning first and executing after must replay bit-identical times —
`==` on floats, no tolerance.  If a change here is deliberate (a cost
model or driver-behavior change), recapture the constants and the
benchmark snapshots together.
"""

import numpy as np
import pytest

from repro.core.batch import VBatch
from repro.core.blas_steps import BlasStepDriver
from repro.ops import OpOptions
from repro.core.interface import potrf_vbatched_max
from repro.core.fused import FusedDriver
from repro.core.partial import partial_potrf_vbatched
from repro.core.separated import SeparatedDriver
from repro.device import Device
from repro import distributions as dist

# Captured from the eager drivers at the commit before the plan IR
# landed (Device(execute_numerics=False), uniform sizes, 150 matrices,
# max 300, seed 3, precision d).
EXPECTED = {
    "fused": 0.0033230769712362706,
    "fused_classic_nosort": 0.004266402276318449,
    "separated": 0.002321036404142817,
    "separated_streamed": 0.002232477998837803,
    "separated_naive": 0.003666513648176529,
    "blas": 0.0036122570767430366,
    "driver_auto": 0.0033230769712362706,
    "partial": 0.0020598992412487983,
}

RUNNERS = {
    "fused": lambda d, b, s: FusedDriver(d).factorize(b, int(s.max())),
    "fused_classic_nosort": lambda d, b, s: FusedDriver(
        d, etm="classic", sorting=False
    ).factorize(b, int(s.max())),
    "separated": lambda d, b, s: SeparatedDriver(d).factorize(b, int(s.max())),
    "separated_streamed": lambda d, b, s: SeparatedDriver(
        d, syrk_mode="streamed", syrk_streams=8
    ).factorize(b, int(s.max())),
    "separated_naive": lambda d, b, s: SeparatedDriver(d, panel_mode="naive").factorize(
        b, int(s.max())
    ),
    "blas": lambda d, b, s: BlasStepDriver(d).factorize(b, int(s.max())),
    "driver_auto": lambda d, b, s: potrf_vbatched_max(d, b, int(s.max()), OpOptions()),
    "partial": lambda d, b, s: partial_potrf_vbatched(d, b, np.minimum(s // 2, s)),
}


def _elapsed_for(fn):
    dev = Device(execute_numerics=False)
    sizes = dist.generate_sizes("uniform", 150, 300, seed=3)
    batch = VBatch.allocate(dev, sizes, "d")
    dev.reset_clock()
    t0 = dev.synchronize()
    fn(dev, batch, sizes)
    return dev.synchronize() - t0


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_planned_timing_is_bit_identical_to_eager(label):
    assert _elapsed_for(RUNNERS[label]) == EXPECTED[label]
