"""Energy-to-solution comparison (paper §IV-G, Fig 10).

The paper integrates PAPI (CPU package) and NVML (GPU board) power over
each run and finds the GPU design "up to 3x more energy efficient".  We
integrate the corresponding power models over the simulated runs.  Both
implementations charge the *whole node*: the CPU run includes the idle
GPU board sitting in the chassis, and the GPU run includes the
near-idle CPU driving the launches — exactly what a wall-socket
measurement (and the paper's "total energy consumed by both hardware")
sees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.cpu_percore import run_cpu_percore
from ..baselines.gpu import run_vbatched
from ..core.batch import VBatch
from ..ops.options import OpOptions
from ..cpu.power import CpuPowerModel, SANDY_BRIDGE_POWER
from ..device import Device
from ..device.power import GpuPowerModel, K40C_POWER
from ..types import Precision

__all__ = [
    "EnergyReading",
    "EnergyComparison",
    "measure_cpu_energy",
    "measure_gpu_energy",
    "run_energy_experiment",
]


@dataclass(frozen=True)
class EnergyReading:
    """One implementation's time and energy to solution."""

    label: str
    elapsed: float
    joules: float

    @property
    def average_watts(self) -> float:
        return self.joules / self.elapsed if self.elapsed > 0 else 0.0


@dataclass(frozen=True)
class EnergyComparison:
    """CPU-vs-GPU energy result for one workload bucket."""

    workload: str
    cpu: EnergyReading
    gpu: EnergyReading

    @property
    def energy_ratio(self) -> float:
        """CPU joules / GPU joules (>1 means the GPU is more efficient)."""
        return self.cpu.joules / self.gpu.joules

    @property
    def time_ratio(self) -> float:
        return self.cpu.elapsed / self.gpu.elapsed


def measure_cpu_energy(
    sizes: np.ndarray,
    precision: Precision | str = Precision.D,
    cpu_power: CpuPowerModel = SANDY_BRIDGE_POWER,
    gpu_power: GpuPowerModel = K40C_POWER,
) -> EnergyReading:
    """Energy of the fastest CPU implementation (dynamic one-core-per-matrix).

    The paper's CPU reference "calls the optimized MKL library within a
    dynamically unrolled parallel OpenMP loop, assigning one core per
    matrix at a time".
    """
    run = run_cpu_percore(sizes, precision, scheduling="dynamic")
    joules = cpu_power.energy(run.core_busy, run.elapsed)
    joules += gpu_power.idle_watts * run.elapsed  # idle board in the node
    return EnergyReading("cpu-1core-dynamic", run.elapsed, joules)


def measure_gpu_energy(
    sizes: np.ndarray,
    precision: Precision | str = Precision.D,
    cpu_power: CpuPowerModel = SANDY_BRIDGE_POWER,
    gpu_power: GpuPowerModel = K40C_POWER,
    options: OpOptions | None = None,
) -> EnergyReading:
    """Energy of the proposed vbatched routine on the simulated K40c."""
    sizes = np.asarray(sizes, dtype=np.int64)
    device = Device(execute_numerics=False)
    batch = VBatch.allocate(device, sizes, precision)
    device.reset_clock()
    run = run_vbatched(device, batch, int(sizes.max()), options)
    joules = gpu_power.energy(device.timeline, run.elapsed)
    # The host spins on launches: one core busy, the package powered.
    host_busy = np.zeros(cpu_power.spec.total_cores)
    host_busy[0] = run.elapsed
    joules += cpu_power.energy(host_busy, run.elapsed)
    return EnergyReading(run.label, run.elapsed, joules)


def run_energy_experiment(
    size_low: int,
    size_high: int,
    batch_count: int,
    precision: Precision | str = Precision.D,
    seed: int = 0,
) -> EnergyComparison:
    """One Fig-10 bucket: sizes uniform in ``[size_low, size_high]``."""
    if not 0 < size_low <= size_high:
        raise ValueError(f"invalid size range [{size_low}, {size_high}]")
    if batch_count <= 0:
        raise ValueError(f"batch_count must be positive, got {batch_count}")
    rng = np.random.default_rng(seed)
    sizes = rng.integers(size_low, size_high + 1, size=batch_count, dtype=np.int64)
    return EnergyComparison(
        workload=f"[{size_low}:{size_high}]x{batch_count}",
        cpu=measure_cpu_energy(sizes, precision),
        gpu=measure_gpu_energy(sizes, precision),
    )
