"""The fused left-looking Cholesky step kernel (paper §III-D).

One launch advances *every* assigned matrix by one ``nb``-wide panel:
each thread block owns one matrix and fuses the three Algorithm-1 steps
on a shared-memory panel —

1. the customized rank-k ``syrk`` update ``C -= A @ B^H`` where ``B`` is
   a slice of ``A`` (Figure 2), double-buffered from global memory;
2. the ``potf2`` factorization of the ``nb x nb`` diagonal tile;
3. the ``trsm`` solve of the rows below the tile.

Thread ``t`` of a block owns row ``t`` of the panel, so a matrix with
``m`` remaining rows keeps ``m`` threads busy; the rest are idle and are
what the two ETMs act on.  Blocks whose matrix is already finished
terminate immediately (ETM-classic); ETM-aggressive additionally
retires idle warps inside live blocks (§III-D1).

The timing plane charges every step; the functional plane does not
split the work the same way.  Nothing reads a matrix between the step
launches of a fused plan, so the launch of a matrix's final step
factors it whole (:func:`~repro.kernels.grouping.stacked_potrf`) and
the earlier launches leave it untouched.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import LaunchError
from ..types import Precision, precision_info
from ..device.kernel import BATCH, Kernel, LaunchConfig, int64_bytes
from . import grouping
from .grouping import fused_step_numerics

__all__ = [
    "FusedPotrfStepKernel", "fused_cost_bytes", "fused_launch_config", "fused_step_numerics",
    "fused_shared_mem_bytes",
]

_WARP = 32
_MAX_ROWS = 1024
_COST_HEAD = struct.Struct("<qqq")


def fused_shared_mem_bytes(max_m: int, nb: int, bytes_per_element: int) -> int:
    """Shared memory the fused kernel needs: the ``m x nb`` panel."""
    return max(1, max_m) * nb * bytes_per_element


def fused_launch_config(max_m: int, nb: int, bytes_per_element: int) -> LaunchConfig:
    """Block shape of a fused launch whose tallest panel has ``max_m`` rows.

    One thread per row, rounded up to whole warps.  A panel taller than
    the max block dimension cannot be held by one block: the driver
    must have switched to the separated approach before this point.
    """
    if max_m > _MAX_ROWS:
        raise LaunchError(
            f"fused kernel cannot cover {max_m} remaining rows "
            "(max block dimension is 1024); use the separated approach"
        )
    threads = -(-max_m // _WARP) * _WARP  # <= _MAX_ROWS, a warp multiple
    return LaunchConfig(
        threads, fused_shared_mem_bytes(max_m, nb, bytes_per_element),
        regs_per_thread=48,
        ilp=2.0,  # double-buffered panel update
    )


def fused_cost_bytes(step: int, nb: int, ms, counts) -> bytes:
    """The fused kernel's byte cost key: step, nb, the group count, then
    the grouped remaining rows and their block counts, in issue order."""
    return _COST_HEAD.pack(step, nb, len(ms)) + int64_bytes(ms) + int64_bytes(counts)


class FusedPotrfStepKernel(Kernel):
    """One fused factorization step over a (subset of a) batch.

    Parameters
    ----------
    sizes, precision:
        The shape of the batch being factorized: its matrix orders and
        precision.  The batch itself binds at launch (operand slot
        ``BATCH``).
    step:
        Zero-based panel index; the panel starts at column ``step*nb``.
    nb:
        Panel width (the fused kernel's compile-time tuning parameter).
    indices:
        Matrix indices covered by this launch (the implicit-sorting
        driver passes a sorted active subset; the plain driver passes
        everything).
    max_m:
        Largest *remaining* row count among covered matrices; sets the
        block dimension, exactly as the paper's interface requires the
        max across the batch.
    etm:
        "classic" or "aggressive".
    groups:
        Optional pre-grouped ``(remaining_sizes, counts)`` pair from
        :func:`~repro.kernels.grouping.grouped_first_seen` — the driver
        computes the step's grouping once and shares it across the
        timing plane instead of each launch re-deriving it.  The cost
        key is the grouped content either way, so a launch costs one
        memo entry however it was built.
    info, config, memo_key:
        Optional values a planner emitting many launches resolved once:
        the precision's info, the launch config for ``max_m``
        (:func:`fused_launch_config`) and the memo key
        (:meth:`~repro.device.kernel.Kernel.byte_key`).  Derived here
        when omitted.
    """

    #: Shared-memory-bound FMA loop: well below a register-tiled gemm.
    compute_efficiency = 0.70

    def __init__(self, sizes: np.ndarray, precision, step: int, nb: int, indices: np.ndarray,
                 max_m: int, etm: str = "classic",
                 groups: tuple[np.ndarray, np.ndarray] | None = None,
                 *, info=None, config: LaunchConfig | None = None, memo_key: tuple | None = None):
        self.etm_mode = etm
        super().__init__()
        if nb <= 0:
            raise ValueError(f"nb must be positive, got {nb}")
        if step < 0:
            raise ValueError(f"step cannot be negative, got {step}")
        if max_m <= 0:
            raise ValueError(f"max_m must be positive, got {max_m}")
        self.sizes = sizes
        self.step = step
        self.nb = nb
        self.indices = np.asarray(indices, dtype=np.int64)
        self.max_m = int(max_m)
        self.groups = groups
        if info is None:
            info = precision_info(precision)
        self._info = info
        self.name = f"fused_potrf:{info.name}:nb{nb}"
        if config is None:
            config = fused_launch_config(self.max_m, nb, info.bytes_per_element)
        self._config = config
        self._memo_key = memo_key

    @property
    def precision(self) -> Precision:
        return self._info.precision

    def launch_config(self) -> LaunchConfig:
        return self._config

    def _grouped(self) -> tuple[np.ndarray, np.ndarray]:
        """The launch's ``(remaining rows, block counts)`` in issue order."""
        if self.groups is not None:
            return self.groups
        remaining = np.maximum(0, self.sizes[self.indices] - self.step * self.nb)
        return grouping.grouped_first_seen(remaining)

    def cost_key(self) -> bytes:
        ms, counts = self._grouped()
        return fused_cost_bytes(self.step, self.nb, ms, counts)

    # ------------------------------------------------------------------
    def block_arrays(self) -> tuple[np.ndarray, ...]:
        """One block per covered matrix, grouped by remaining rows."""
        w = self._info.flop_weight
        elem = self._info.bytes_per_element
        k = self.step * self.nb
        # Group identical remaining sizes, preserving issue order (the
        # driver controls ordering: the implicit-sorting driver passes
        # size-sorted indices, the plain driver passes batch order —
        # the load-balance difference between the two must survive).
        ms, counts = self._grouped()
        m = ms.astype(np.float64)
        jb = np.minimum(float(self.nb), m)
        # Customized syrk: C[m x jb] -= A[m x k] B[jb x k]^H; then the
        # potf2 of the tile and the trsm of the rows below it.
        flops = 2.0 * m * jb * k if k > 0 else np.zeros_like(m)
        flops = flops + (jb**3 / 3.0 + jb**2 / 2.0 + jb / 6.0)
        flops = flops + np.where(m > jb, (m - jb) * jb * jb, 0.0)
        # Global traffic: read the m x k history panel once (B is a
        # slice of A — the customized kernel does not reload it),
        # read + write the m x jb panel.
        bytes_ = (m * k + 2.0 * m * jb) * elem
        # Serial chains: jb dependent column steps in potf2 and jb
        # substitution steps in the fused trsm.
        serial = 2.0 * jb
        # A finished matrix (m = 0) gets exact zeros: its block
        # terminates at once (ETM).
        return flops * w, bytes_, serial, m, np.asarray(counts, dtype=np.int64)

    def run_numerics(self, operands) -> None:
        batch = operands[BATCH]
        infos = batch.infos_dev.data
        j0 = self.step * self.nb
        sizes = self.sizes[self.indices]
        # ETM: drop finished and already-failed matrices up front.
        live = (sizes > j0) & (infos[self.indices] == 0)
        if grouping.reference_enabled():
            for i in self.indices[live]:
                i = int(i)
                info = fused_step_numerics(batch.matrix_view(i), j0, self.nb)
                if info != 0:
                    infos[i] = info
            return
        # Nothing reads a matrix between the step launches of a fused
        # plan, so each matrix is factored whole by the launch of its
        # final step and left untouched by the earlier ones.
        final = self.indices[live & (sizes <= j0 + self.nb)]
        if final.size == 0:
            return
        ret = grouping.stacked_potrf([batch.matrix_view(int(i)) for i in final], self.nb)
        bad = ret > 0
        if bad.any():
            infos[final[bad]] = ret[bad]
