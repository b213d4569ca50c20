"""Kernel abstraction: launch configuration and per-block work records.

A simulated kernel describes itself in two planes:

* ``block_arrays()`` — the *timing plane*: parallel arrays with one
  entry per group of identical thread blocks (flops, global-memory
  bytes, serial chain length, live threads, block count).  The device
  turns these into per-block durations and schedules them onto SM
  slots.  A kernel with a few groups writes them as :class:`BlockWork`
  records and returns :meth:`BlockWork.pack`; one with many builds the
  arrays directly.
* ``run_numerics(operands)`` — the *functional plane*: the actual NumPy
  math the kernel performs on the containers the launch binds (a plan's
  ``(batch, workspace)``, a BLAS routine's ``(a, b, c)``).  Tests always
  execute it; figure sweeps may disable it (``Device(execute_numerics=False)``)
  since the timing plane never reads matrix values.

A kernel holds shapes, never data: a task names each operand
``(slot, i, rows, cols)`` (:func:`operand`), so one planned kernel runs
on any batch of its shape.

``cost_key()`` digests exactly what the timing plane reads, so the
device can serve a launch's cost from its memo without building
``block_arrays()`` (see :meth:`repro.device.Device.prepare_launch`).
"""

from __future__ import annotations

import abc
import pickle
import struct
from dataclasses import dataclass

import numpy as np

from ..types import Precision

__all__ = ["LaunchConfig", "BlockWork", "Kernel", "EtmMode", "array_key", "int64_bytes", "key_prefix",
           "ALL", "BATCH", "WORKSPACE", "operand"]


EtmMode = str  # "classic" | "aggressive"

_ETM_MODES = ("classic", "aggressive")

BATCH, WORKSPACE = 0, 1  # the operand slots a plan binds
ALL = slice(None)  # a whole-axis operand window


def operand(operands, ref) -> np.ndarray:
    """The ``rows x cols`` window of matrix ``i`` in ``operands[slot]``
    (any container whose ``[i]`` is that matrix) that ``ref = (slot, i,
    rows, cols)`` names."""
    slot, i, rows, cols = ref
    return operands[slot][i][rows, cols]


@dataclass(slots=True, unsafe_hash=True)
class LaunchConfig:
    """Per-launch resource request (the CUDA ``<<<...>>>`` analogue).

    ``ilp`` is the kernel's instruction-level parallelism: how many
    independent in-flight operations each warp sustains (register
    blocking / double buffering).  It multiplies the resident-warp count
    when judging latency hiding — a register-tiled gemm saturates an SM
    with far fewer warps than a shared-memory-bound panel kernel.

    Slotted rather than frozen (planners build one per distinct block
    shape, and a frozen init costs several times more); a config is
    never changed once built, and plans share them between kernels.
    """

    threads_per_block: int
    shared_mem_per_block: int = 0
    regs_per_thread: int = 32
    ilp: float = 1.0

    def __post_init__(self):
        if self.threads_per_block <= 0:
            raise ValueError(f"threads_per_block must be positive: {self}")
        if self.shared_mem_per_block < 0:
            raise ValueError(f"shared memory cannot be negative: {self}")
        if self.ilp <= 0:
            raise ValueError(f"ilp must be positive: {self}")


@dataclass(frozen=True)
class BlockWork:
    """Work of one thread block (or ``count`` identical blocks).

    Attributes
    ----------
    flops:
        Precision-weighted floating-point operations the block performs.
    bytes:
        Global-memory traffic (reads + writes) after shared-memory
        reuse — i.e. what actually hits DRAM.
    serial_iters:
        Length of the block's dependent serial chain (e.g. potf2 column
        steps: each needs the previous column's sqrt/divide).  Costed at
        ``Calibration.serial_op_latency`` per iteration regardless of
        width.
    active_threads:
        Threads that have real work.  ``0`` marks an ETM-terminated
        block, which costs only the termination overhead.
    count:
        Number of identical blocks this record stands for (aggregation
        keeps huge gemm grids cheap to simulate).
    """

    flops: float
    bytes: float
    serial_iters: float = 0.0
    active_threads: int | None = None
    count: int = 1

    def __post_init__(self):
        if self.flops < 0 or self.bytes < 0 or self.serial_iters < 0:
            raise ValueError(f"negative work: {self}")
        if self.count <= 0:
            raise ValueError(f"count must be positive: {self}")
        if self.active_threads is not None and self.active_threads < 0:
            raise ValueError(f"active_threads cannot be negative: {self}")

    @property
    def terminated(self) -> bool:
        return self.active_threads == 0

    @staticmethod
    def pack(works) -> tuple[np.ndarray, ...]:
        """Records as the arrays of :meth:`Kernel.block_arrays`:
        ``(flops, bytes, serial_iters, active_threads, counts)``, with
        ``inf`` threads where a record keeps the whole block busy
        (``active_threads is None``)."""
        n = len(works)
        return (
            np.fromiter((w.flops for w in works), np.float64, n),
            np.fromiter((w.bytes for w in works), np.float64, n),
            np.fromiter((w.serial_iters for w in works), np.float64, n),
            np.fromiter(
                (np.inf if w.active_threads is None else w.active_threads for w in works),
                np.float64, n,
            ),
            np.fromiter((w.count for w in works), np.int64, n),
        )


def array_key(values) -> tuple:
    """Hashable, exact digest of an array's contents (dtype and shape
    included, so equal bytes of different dtypes never collide)."""
    a = np.asarray(values)
    return (a.dtype.str, a.shape, a.tobytes())


_INT64 = np.dtype("<i8")


def int64_bytes(values) -> bytes:
    """An integer array's values as little-endian int64 bytes.

    One fixed dtype, so equal values encode equally whatever integer
    type they arrive in; callers put the length ahead of the bytes.
    """
    a = np.asarray(values)
    if a.dtype is _INT64:
        return a.tobytes()
    if a.dtype.kind not in "iub":
        raise TypeError(f"byte cost keys encode integer arrays, got {a.dtype}")
    return a.astype(_INT64, copy=False).tobytes()


_PREFIX = struct.Struct("<qqqddd")  # config (threads, smem, regs, ilp), efficiency constants


def key_prefix(config: LaunchConfig, precision, etm_mode: str, compute_efficiency: float,
               serial_latency_scale: float) -> bytes:
    """The bytes a byte memo key holds ahead of the kernel's own cost
    bytes (:meth:`Kernel.byte_key`).

    The launch config and the efficiency constants in a fixed layout,
    then the precision and the ETM mode, each closed by ``|`` (neither
    contains one), so the prefix ends unambiguously.  Planners that emit
    many kernels of one shape compute it once and share it.
    """
    p = precision.value if isinstance(precision, Precision) else precision
    return _PREFIX.pack(
        config.threads_per_block, config.shared_mem_per_block, config.regs_per_thread,
        config.ilp, compute_efficiency, serial_latency_scale,
    ) + f"{p}|{etm_mode}|".encode()


class Kernel(abc.ABC):
    """Base class for every simulated device kernel.

    Subclasses set :attr:`precision` (a :class:`~repro.types.Precision`)
    and :attr:`etm_mode`, implement the two planes, and give themselves
    a ``name`` used in timeline categories and profiles.
    """

    name: str = "kernel"
    etm_mode: EtmMode = "classic"
    #: Fraction of the device's tuned-kernel arithmetic rate this kernel
    #: sustains when fully latency-hidden (instruction mix quality):
    #: register-tiled gemm ~1.0, shared-memory panel kernels ~0.5,
    #: serial global-memory sweeps ~0.25.
    compute_efficiency: float = 1.0
    #: Multiplier on ``Calibration.serial_op_latency`` for this kernel's
    #: serial chains: 1.0 when the chain's operands sit in shared memory
    #: (the fused kernel), ~6 when every dependent step round-trips
    #: through global memory (generic unblocked potf2/trsm kernels).
    serial_latency_scale: float = 1.0
    #: Batch indices of the matrices this launch reads/writes, set by
    #: planners that know the mapping (streamed syrk, trsm sweeps, ...).
    #: ``None`` means "unknown" and the plan optimizer must assume the
    #: launch may touch the whole batch.
    matrix_indices: tuple | None = None
    #: :meth:`memo_key`'s value once computed (kernels are not mutated
    #: after planning, and a cached plan re-launches the same objects).
    _memo_key: tuple | None = None

    def __init__(self):
        if self.etm_mode not in _ETM_MODES:
            raise ValueError(f"etm_mode must be one of {_ETM_MODES}, got {self.etm_mode!r}")
        if not 0.0 < self.compute_efficiency <= 1.0:
            raise ValueError(
                f"compute_efficiency must be in (0, 1], got {self.compute_efficiency}"
            )

    @property
    @abc.abstractmethod
    def precision(self):
        """Arithmetic precision the kernel runs in."""

    @abc.abstractmethod
    def launch_config(self) -> LaunchConfig:
        """Resource request for this launch."""

    @abc.abstractmethod
    def block_arrays(self) -> tuple[np.ndarray, ...]:
        """Timing plane as parallel arrays, one entry per group of
        identical blocks: ``(flops, bytes, serial_iters, active_threads,
        counts)`` (float64, counts int64; ``active_threads`` is ``inf``
        where a group keeps the whole block busy, ``0`` where its blocks
        terminate at once).  Groups are in issue order."""

    def cost_key(self) -> tuple | bytes | None:
        """Digest of everything ``launch_config()`` and
        ``block_arrays()`` read (sizes, steps, tiling, ...).

        Two kernels of the same class with equal keys, precision, ETM
        mode and efficiency constants must cost the same.  Group arrays
        are keyed in issue order: the exact scheduler depends on it.
        Either a tuple of plain values (numbers, strings, bytes,
        tuples), which :meth:`memo_key` pickles, or ``bytes`` in a
        fixed layout that encodes its own length (array lengths ahead of
        the arrays), which it uses as they are.  ``None`` (the default)
        opts the kernel out of the device's memo.
        """
        return None

    def memo_key(self) -> tuple:
        """The device cost memo's key, computed once per kernel object.

        :meth:`byte_key` of :func:`key_prefix` and :meth:`cost_key` when
        the cost key is bytes; otherwise the class plus a pickle of
        :meth:`cost_key` and every other kernel-level input of the cost
        model; ``()`` when the kernel opts out.  Both forms are exact
        (equal bytes only for equal values) and leave a key whose hash
        is cached, so a re-launch costs one cheap dict lookup.  A
        planner may hand a kernel its key at construction.
        """
        key = self._memo_key
        if key is None:
            cost = self.cost_key()
            if cost is None:
                key = ()
            elif isinstance(cost, bytes):
                prefix = key_prefix(
                    self.launch_config(), self.precision, self.etm_mode,
                    self.compute_efficiency, self.serial_latency_scale,
                )
                key = self.byte_key(prefix, cost)
            else:
                # Flattened to plain values: they pickle several times
                # faster than the dataclasses and enum they come from.
                c = self.launch_config()
                p = self.precision
                inputs = (
                    cost,
                    c.threads_per_block, c.shared_mem_per_block, c.regs_per_thread, c.ilp,
                    p.value if isinstance(p, Precision) else p,
                    self.etm_mode, self.compute_efficiency, self.serial_latency_scale,
                )
                key = (type(self), pickle.dumps(inputs, protocol=pickle.HIGHEST_PROTOCOL))
            self._memo_key = key
        return key

    @classmethod
    def byte_key(cls, prefix: bytes, cost: bytes) -> tuple:
        """A byte memo key: the class, then :func:`key_prefix` bytes
        followed by the kernel's byte :meth:`cost_key`."""
        return (cls, prefix + cost)

    def run_numerics(self, operands) -> None:
        """Functional plane: perform the kernel's math on ``operands``.

        Default is a no-op for kernels that only move metadata.
        """

    def total_blocks(self) -> int:
        return int(self.block_arrays()[-1].sum())
