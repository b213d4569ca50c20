"""Simulated throughput-oriented accelerator (the paper's K40c stand-in).

The device model reproduces the *mechanisms* the paper's performance
phenomena come from: streaming multiprocessors with occupancy limits,
thread-block wave scheduling, warp-granular early termination, kernel
launch overhead, stream-level concurrent kernel execution, a global
memory with finite capacity, and a PCIe link.  See DESIGN.md §2 for the
substitution argument and `calibration.py` for every tuned constant.
"""

from .spec import DeviceSpec, K20X, K40C, Occupancy, TITAN_BLACK
from .calibration import Calibration, K40C_CALIBRATION
from .clock import Timeline
from .memory import DeviceArray, GlobalMemory
from .pool import WorkspacePool
from .kernel import BlockWork, Kernel, LaunchConfig
from .scheduler import BlockScheduler
from .stream import Stream
from .device import Device
from .executor import (
    ExecutionStats,
    LaunchProgram,
    MemberStats,
    PlanExecutor,
    execute_concurrently,
)
from .topology import DeviceGroup, partition_sizes
from .member import ChunkRun, ComputeMember, CpuMember, GpuMember, MemberCapabilities
from .hetero import HeteroGroup, parse_members

__all__ = [
    "DeviceSpec",
    "K40C",
    "K20X",
    "TITAN_BLACK",
    "Occupancy",
    "Calibration",
    "K40C_CALIBRATION",
    "Timeline",
    "DeviceArray",
    "GlobalMemory",
    "WorkspacePool",
    "BlockWork",
    "Kernel",
    "LaunchConfig",
    "BlockScheduler",
    "Stream",
    "Device",
    "PlanExecutor",
    "ExecutionStats",
    "LaunchProgram",
    "execute_concurrently",
    "DeviceGroup",
    "partition_sizes",
    "MemberStats",
    "ChunkRun",
    "ComputeMember",
    "CpuMember",
    "GpuMember",
    "MemberCapabilities",
    "HeteroGroup",
    "parse_members",
]
