"""Panel kernels for the LU/QR/solve extensions.

The heavy lifting (trailing updates, block-reflector applications) goes
through :class:`~repro.kernels.gemm.VbatchedGemmKernel` untouched; the
kernels here cover only the tall-skinny panel work and row swaps.

Their functional planes run stacked over groups of same-shape operands
(Jhurani & Mullowney's grouping for batched GEMM): LU panels as
zero-padded order-class stacks through
:func:`~repro.hostblas.stacked_getf2`, row interchanges as one
permutation gather per matrix, the LU ``U12`` solve through
:func:`~repro.hostblas.stacked_substitution` and the posv/gesv solves
through :func:`~repro.hostblas.stacked_trsm`.  Every group holds
operands of one shape and every stacked operation works slice by slice,
so a matrix's results never depend on its batchmates.  The per-matrix
loops stay as the ``REPRO_REFERENCE_KERNELS`` oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import flops as _flops
from ..device.kernel import BATCH, BlockWork, Kernel, LaunchConfig, array_key
from ..hostblas import (
    apply_pivots,
    geqr2,
    getf2,
    jacobi_sweep,
    larft,
    pivot_permutation,
    stacked_geqrf,
    stacked_getf2,
    stacked_jacobi_sweep,
    stacked_larft,
    stacked_substitution,
    stacked_trsm,
    trsm as host_trsm,
)
from ..kernels.gemm import VbatchedGemmKernel
from ..kernels.grouping import reference_enabled
from ..types import Precision, precision_info

__all__ = [
    "OpRunStats",
    "PanelGetf2Kernel",
    "RowSwapKernel",
    "LeftTrsmKernel",
    "PanelGeqr2Kernel",
    "LarfbUpdateGemmKernel",
    "JacobiSweepKernel",
    "SvdConvergenceKernel",
    "SvdFinalizeKernel",
    "FusedPotrsKernel",
    "FusedGetrsKernel",
]

_WARP = 32


def _nrhs(rhs) -> int:
    """Right-hand sides in one matrix's RHS view (0 when absent)."""
    return 0 if rhs is None else (rhs.shape[1] if rhs.ndim == 2 else 1)


def _row_order(ipiv: np.ndarray, base: int, rows: int) -> np.ndarray | None:
    """Gather order of the ``rows`` rows from ``base`` down after the
    interchanges in ``ipiv`` (1-based global rows, all at or below
    ``base``), or ``None`` when no row moves."""
    local = ipiv - base
    if not np.count_nonzero(local - np.arange(1, local.shape[0] + 1)):
        return None
    return pivot_permutation(local, rows)


def _order_class(n: int) -> int:
    """Order class of a panel with ``n`` rows, the LU panels' stacking
    key: the next multiple of 8.  It depends on ``n`` alone."""
    return -(-n // 8) * 8


@dataclass
class OpRunStats:
    """Planner-side accounting shared by the extension-op planners."""

    steps: int = 0
    window_launches_max: int = 0
    sweeps: int = 0


class _PanelKernelBase(Kernel):
    """Shared scaffolding: one thread block per matrix, grouped works.

    ``sizes``/``precision`` are the batch's shape (the batch binds at
    launch).  ``indices`` restricts the launch to a subset of the batch
    (one block per listed matrix) — the implicit-sorting planners pass a
    size window so sub-launches carry no dead blocks; ``None`` covers the
    whole batch, matching the ETM launches.
    """

    compute_efficiency = 0.50
    etm_mode = "aggressive"

    def __init__(self, sizes, precision, max_rows: int, indices: np.ndarray | None = None):
        super().__init__()
        if max_rows <= 0:
            raise ValueError(f"max_rows must be positive, got {max_rows}")
        self.sizes = sizes
        self.max_rows = int(max_rows)
        self._info = precision_info(precision)
        if indices is None:
            self.indices = np.arange(len(sizes), dtype=np.int64)
        else:
            self.indices = np.asarray(indices, dtype=np.int64)
            self.matrix_indices = tuple(int(i) for i in self.indices)

    @property
    def precision(self) -> Precision:
        return self._info.precision

    def launch_config(self) -> LaunchConfig:
        threads = min(1024, -(-self.max_rows // _WARP) * _WARP)
        return LaunchConfig(
            threads_per_block=threads,
            shared_mem_per_block=min(48 * 1024, threads * 16 * self._info.bytes_per_element),
            regs_per_thread=48,
            ilp=2.0,
        )

    def _panel_key(self, positions) -> tuple:
        """Cost key of a panel launch: offset plus the panel widths and
        matrix orders at ``positions``, in issue order."""
        return (self.offset, array_key(self.jbs[positions]), array_key(self.sizes[positions]))

    def _grouped(self, per_matrix) -> tuple[np.ndarray, ...]:
        groups: dict[tuple, int] = {}
        for desc in per_matrix:
            groups[desc] = groups.get(desc, 0) + 1
        works = []
        for (flops, bytes_, serial, active), count in groups.items():
            if active == 0:
                works.append(BlockWork(0.0, 0.0, active_threads=0, count=count))
            else:
                works.append(
                    BlockWork(flops, bytes_, serial_iters=serial,
                              active_threads=active, count=count)
                )
        return BlockWork.pack(works)


class PanelGetf2Kernel(_PanelKernelBase):
    """Pivoted LU of each matrix's ``m_i x jb_i`` panel (one block each).

    The pivot search adds a reduction to every column's serial chain,
    so the chain is ~3 dependent steps per column instead of potf2's 2.

    Real panels are grouped by order class (:func:`_order_class` of the
    panel's row count; square panels apart from tall ones) and each
    group is factored as one stack by
    :func:`~repro.hostblas.stacked_getf2`.  Panels shorter than the
    group's tallest are padded: a square panel of order ``n`` becomes
    ``diag(A, I)``, a tall one gets zero rows.  For a finite panel the
    padding rows stay zero, so they never win a pivot search, and every
    real entry goes through the reference's operations: factor, pivots
    and info equal :func:`~repro.hostblas.getf2`'s bit for bit, however
    much padding there is.  A panel whose result is not finite (a zero
    pivot, NaN or Inf in the input, an overflow) is factored again from
    its untouched input by :func:`~repro.hostblas.getf2`.  Complex
    panels always are, and so is a group of one: ``getf2`` in place
    gives the stack's bits without its copy and finiteness check.
    """

    def __init__(self, sizes, precision, offset: int, jbs: np.ndarray, ipivs: np.ndarray,
                 max_rows: int, indices: np.ndarray | None = None):
        super().__init__(sizes, precision, max_rows, indices)
        if offset < 0:
            raise ValueError(f"offset cannot be negative, got {offset}")
        self.offset = offset
        self.jbs = np.asarray(jbs, dtype=np.int64)
        self.ipivs = ipivs  # host-mirrored (k, max_n) pivot table
        self.name = f"vbatched_getf2:{self._info.name}"

    def cost_key(self) -> tuple:
        return self._panel_key(self.indices)

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        w = self._info.flop_weight
        elem = self._info.bytes_per_element
        per = []
        for i in self.indices:
            i = int(i)
            jb = int(self.jbs[i])
            m = max(0, int(self.sizes[i]) - self.offset)
            if jb == 0 or m == 0:
                per.append((0.0, 0.0, 0.0, 0))
                continue
            per.append((
                _flops.getrf_flops(m, jb) * w,
                2.0 * m * jb * elem,
                3.0 * jb,
                m,
            ))
        return self._grouped(per)

    def run_numerics(self, operands) -> None:
        batch = operands[BATCH]
        j0 = self.offset
        stacked = not (reference_enabled() or self.precision.is_complex)
        groups: dict[tuple[int, int], list[int]] = {}
        for i in self.indices:
            i = int(i)
            jb = int(self.jbs[i])
            m = int(self.sizes[i]) - j0
            if jb == 0 or m <= 0:
                continue
            if stacked:
                # Square panels key on width 0, tall ones on their width.
                key = (_order_class(m), 0 if jb == m else jb)
                groups.setdefault(key, []).append(i)
            else:
                self._factor_one(batch, i, jb)
        for members in groups.values():
            if len(members) == 1:
                self._factor_one(batch, members[0], int(self.jbs[members[0]]))
                continue
            panels = [batch.matrix_view(i)[j0:, j0 : j0 + int(self.jbs[i])] for i in members]
            rows = max(p.shape[0] for p in panels)
            cols = max(p.shape[1] for p in panels)
            stack = np.zeros((len(members), rows, cols), dtype=self._info.dtype)
            diag = np.arange(cols)
            stack[:, diag, diag] = 1  # a short square panel becomes diag(A, I)
            for g, panel in enumerate(panels):
                stack[g, : panel.shape[0], : panel.shape[1]] = panel
            ipivs, infos = stacked_getf2(stack)
            finite = np.isfinite(stack).all(axis=(1, 2))
            for g, (i, panel) in enumerate(zip(members, panels)):
                m, jb = panel.shape
                if finite[g]:
                    panel[...] = stack[g, :m, :jb]
                    self._record(batch, i, jb, ipivs[g, :jb], int(infos[g]))
                else:
                    self._factor_one(batch, i, jb)
            del stack, panels, ipivs, infos

    def _factor_one(self, batch, i: int, jb: int) -> None:
        """The reference: :func:`~repro.hostblas.getf2` on one panel."""
        j0 = self.offset
        piv = np.zeros(jb, dtype=np.int64)
        info = getf2(batch.matrix_view(i)[j0:, j0 : j0 + jb], piv)
        self._record(batch, i, jb, piv, info)

    def _record(self, batch, i: int, jb: int, piv: np.ndarray, info: int) -> None:
        """Store a panel's pivots (as global rows) and its info code."""
        infos = batch.infos_dev.data
        if info != 0 and infos[i] == 0:
            infos[i] = self.offset + info
        self.ipivs[i, self.offset : self.offset + jb] = self.offset + piv


class RowSwapKernel(_PanelKernelBase):
    """Apply each matrix's panel pivots to the columns outside the panel.

    The functional plane composes a panel's interchanges into one row
    permutation (:func:`~repro.hostblas.pivot_permutation`) and moves
    the rows below the panel's top with one gather per matrix; the
    reference swaps row pairs one pivot at a time.
    """

    compute_efficiency = 1.0
    etm_mode = "classic"

    def __init__(self, sizes, precision, offset: int, jbs: np.ndarray, ipivs: np.ndarray,
                 max_rows: int):
        super().__init__(sizes, precision, max_rows)
        self.offset = offset
        self.jbs = np.asarray(jbs, dtype=np.int64)
        self.ipivs = ipivs
        self.name = f"vbatched_laswp:{self._info.name}"

    def cost_key(self) -> tuple:
        return self._panel_key(slice(0, len(self.jbs)))

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        elem = self._info.bytes_per_element
        per = []
        for i, jb in enumerate(self.jbs):
            jb = int(jb)
            n = int(self.sizes[i])
            if jb == 0:
                per.append((0.0, 0.0, 0.0, 0))
                continue
            # Each swap touches two full rows outside the panel.
            per.append((0.0, 2.0 * jb * max(0, n - jb) * elem, float(jb), min(n, 256)))
        return self._grouped(per)

    def run_numerics(self, operands) -> None:
        batch = operands[BATCH]
        j0 = self.offset
        reference = reference_enabled()
        for i, jb in enumerate(self.jbs):
            jb = int(jb)
            n = int(self.sizes[i])
            if jb == 0 or n - j0 <= 0:
                continue
            a = batch.matrix_view(i)
            if not reference:
                perm = _row_order(self.ipivs[i, j0 : j0 + jb], j0, n - j0)
                if perm is None:
                    continue
                moved = a[j0 + perm]
                a[j0:, :j0] = moved[:, :j0]
                a[j0:, j0 + jb :] = moved[:, j0 + jb :]
                continue
            for k in range(jb):
                # ipivs holds global 1-based pivot rows already.
                p = int(self.ipivs[i, self.offset + k]) - 1
                row = self.offset + k
                if p != row and p < n:
                    a[[row, p], : self.offset] = a[[p, row], : self.offset]
                    a[[row, p], self.offset + jb :] = a[[p, row], self.offset + jb :]


class LeftTrsmKernel(_PanelKernelBase):
    """``B := op(T)^{-1} B`` with unit/non-unit triangular ``T`` per matrix.

    Used for LU's ``U12 := L11^{-1} A12`` step.  Cost follows the
    trtri+gemm decomposition at ``ib = 32`` granularity, collapsed into
    one modeled launch (the trailing gemm dominates the step anyway).

    Real matrices are solved as ``(jb, ncols)`` stacks through
    :func:`~repro.hostblas.stacked_substitution`, which keeps the
    reference's substitution, so ``U12`` (and with it the LU factor)
    stays bitwise equal to the per-matrix :func:`~repro.hostblas.trsm`.
    """

    compute_efficiency = 0.75
    etm_mode = "classic"

    def __init__(self, sizes, precision, offset: int, jbs: np.ndarray, max_rows: int,
                 uplo: str = "l", diag: str = "u"):
        super().__init__(sizes, precision, max_rows)
        self.offset = offset
        self.jbs = np.asarray(jbs, dtype=np.int64)
        self.uplo = uplo
        self.diag = diag
        self.name = f"vbatched_trsm_left:{self._info.name}"

    def cost_key(self) -> tuple:
        return self._panel_key(slice(0, len(self.jbs)))

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        w = self._info.flop_weight
        elem = self._info.bytes_per_element
        per = []
        for i, jb in enumerate(self.jbs):
            jb = int(jb)
            n = int(self.sizes[i])
            ncols = max(0, n - self.offset - jb)
            if jb == 0 or ncols == 0:
                per.append((0.0, 0.0, 0.0, 0))
                continue
            per.append((
                _flops.trsm_flops(jb, ncols, side="left") * w,
                (jb * jb + 2.0 * jb * ncols) * elem,
                float(-(-jb // 32)) * 2.0,
                min(jb * 4, 1024),
            ))
        return self._grouped(per)

    def run_numerics(self, operands) -> None:
        batch = operands[BATCH]
        j0 = self.offset
        stacked = not (reference_enabled() or self.precision.is_complex)
        groups: dict[tuple[int, int], list[int]] = {}
        for i, jb in enumerate(self.jbs):
            jb = int(jb)
            n = int(self.sizes[i])
            j1 = j0 + jb
            if jb == 0 or n - j1 <= 0:
                continue
            if stacked:
                groups.setdefault((jb, n - j1), []).append(i)
            else:
                a = batch.matrix_view(i)
                host_trsm("l", self.uplo, "n", self.diag, 1.0,
                          a[j0:j1, j0:j1], a[j0:j1, j1:])
        for (jb, _), members in groups.items():
            j1 = j0 + jb
            views = [batch.matrix_view(i)[j0:j1] for i in members]
            rhs = np.stack([v[:, j1:] for v in views])
            stacked_substitution(np.stack([v[:, j0:j1] for v in views]), rhs,
                                 lower=self.uplo == "l", unit=self.diag == "u")
            for v, solved in zip(views, rhs):
                v[:, j1:] = solved
            del views, rhs


class PanelGeqr2Kernel(_PanelKernelBase):
    """Householder QR of each matrix's ``m_i x jb_i`` panel + its ``T``.

    Every column needs a norm reduction, a scale and a rank-1 update:
    ~3 dependent serial steps per column.  The ``T`` accumulation is
    folded in (its flops are ``jb^2 m``-ish, charged here).
    """

    def __init__(self, sizes, precision, offset: int, jbs: np.ndarray, taus: np.ndarray,
                 t_store: dict, max_rows: int, indices: np.ndarray | None = None):
        super().__init__(sizes, precision, max_rows, indices)
        self.offset = offset
        self.jbs = np.asarray(jbs, dtype=np.int64)
        self.taus = taus
        self.t_store = t_store
        self.name = f"vbatched_geqr2:{self._info.name}"

    def cost_key(self) -> tuple:
        return self._panel_key(self.indices)

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        w = self._info.flop_weight
        elem = self._info.bytes_per_element
        per = []
        for i in self.indices:
            i = int(i)
            jb = int(self.jbs[i])
            m = max(0, int(self.sizes[i]) - self.offset)
            if jb == 0 or m == 0:
                per.append((0.0, 0.0, 0.0, 0))
                continue
            flops = _flops.geqrf_flops(m, jb) + jb * jb * m  # panel + larft
            per.append((flops * w, 2.0 * m * jb * elem, 3.0 * jb, m))
        return self._grouped(per)

    def run_numerics(self, operands) -> None:
        batch = operands[BATCH]
        j0 = self.offset
        groups: dict[tuple[int, int], list[int]] = {}
        for i in self.indices:
            i = int(i)
            jb = int(self.jbs[i])
            m = int(self.sizes[i]) - j0
            if jb == 0 or m <= 0:
                continue
            if reference_enabled() or self.precision.is_complex:
                # Complex panels stay on the host reference too: LAPACK's
                # larfg makes a real beta where geqr2's is complex.
                panel = batch.matrix_view(i)[j0:, j0 : j0 + jb]
                geqr2(panel, self.taus[i, j0 : j0 + jb])
                self.t_store[i] = larft(panel, self.taus[i, j0 : j0 + jb])
            else:
                groups.setdefault((m, jb), []).append(i)
        for (_, jb), members in groups.items():
            panels = [batch.matrix_view(i)[j0:, j0 : j0 + jb] for i in members]
            packed, taus = stacked_geqrf(np.stack(panels))
            ts = stacked_larft(packed, taus)
            for g, (i, panel) in enumerate(zip(members, panels)):
                panel[...] = packed[g]
                self.taus[i, j0 : j0 + jb] = taus[g]
                self.t_store[i] = ts[g]


class LarfbUpdateGemmKernel(VbatchedGemmKernel):
    """The second larfb gemm (``C -= V (T^H W)``) carrying the numerics.

    Timing plane is identical to the plain
    :class:`~repro.kernels.gemm.VbatchedGemmKernel` it subclasses (same
    tasks, same name); the functional plane applies the exact compact-WY
    update per matrix — this is what lets the QR planner put *all*
    numerics on the plan instead of applying the block reflector on the
    host after the launches.
    """

    def __init__(self, tasks, precision, offset: int, jbs: np.ndarray,
                 t_store: dict, taus: np.ndarray, label: str = "larfb_c"):
        super().__init__(tasks, precision, label=label)
        self.offset = int(offset)
        self.jbs = np.asarray(jbs, dtype=np.int64)
        self.t_store = t_store
        self.taus = taus

    def run_numerics(self, operands) -> None:
        from ..hostblas import apply_q_transpose

        batch = operands[BATCH]
        for i, jb in enumerate(self.jbs):
            jb = int(jb)
            n = int(batch.sizes_host[i])
            if jb == 0 or n - self.offset - jb <= 0:
                continue
            a = batch.matrix_view(i)
            apply_q_transpose(
                a[self.offset :, self.offset : self.offset + jb],
                self.t_store[i],
                a[self.offset :, self.offset + jb :],
            )


def _jacobi_order_class(n: int) -> int:
    """Stack order a matrix of order ``n`` sweeps at: the next multiple
    of 8, at least 8.  It depends on ``n`` alone, so the round-robin
    schedule (and every bit of the result) is independent of the batch."""
    return max(8, -(-n // 8) * 8)


class JacobiSweepKernel(_PanelKernelBase):
    """One round-robin one-sided Jacobi sweep per matrix (one block each).

    The timing plane charges the full sweep for every live matrix — the
    sweep budget is fixed at plan time (static DAG), so timing depends
    only on sizes and the plan stays cacheable.  The functional plane
    skips matrices whose columns already converged (value-dependent
    early exit that never moves the simulated clock) and sweeps the
    rest as zero-padded stacks, one per order class
    (:func:`~repro.hostblas.stacked_jacobi_sweep`), in the round-robin
    order the timing plane charges.  The reference path sweeps each
    matrix row-cyclically (:func:`~repro.hostblas.jacobi_sweep`).
    """

    def __init__(self, sizes, precision, sweep: int, state, max_rows: int,
                 indices: np.ndarray | None = None):
        super().__init__(sizes, precision, max_rows, indices)
        self.sweep = int(sweep)
        self.state = state
        self.name = f"vbatched_jacobi_sweep:{self._info.name}"

    def cost_key(self) -> tuple:
        return (self.max_rows, array_key(self.sizes[self.indices]))

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        w = self._info.flop_weight
        elem = self._info.bytes_per_element
        per = []
        for i in self.indices:
            n = int(self.sizes[int(i)])
            if n <= 1:
                # A 1x1 problem needs no rotations; the block terminates.
                per.append((0.0, 0.0, 0.0, 0))
                continue
            # Columns of A and V stage through shared memory; global
            # traffic is one read+write pass over both per sweep.  The
            # rotation rounds chain serially (round-robin ordering).
            per.append((
                _flops.gesvj_sweep_flops(n) * w,
                4.0 * n * n * elem,
                3.0 * (n - 1.0),
                min(n, self.max_rows),
            ))
        return self._grouped(per)

    def run_numerics(self, operands) -> None:
        batch = operands[BATCH]
        st = self.state
        classes: dict[int, list[int]] = {}
        for i in self.indices:
            i = int(i)
            n = int(self.sizes[i])
            if n == 0 or st.converged[i]:
                continue
            if n == 1:
                st.converged[i] = True
                continue
            if reference_enabled():
                self._record(i, jacobi_sweep(batch.matrix_view(i), st.v_store[i], st.tol))
            else:
                classes.setdefault(_jacobi_order_class(n), []).append(i)
        for order, members in classes.items():
            a = np.zeros((len(members), order, order), dtype=self._info.dtype)
            v = np.zeros_like(a)
            for g, i in enumerate(members):
                n = int(self.sizes[i])
                a[g, :n, :n] = batch.matrix_view(i)
                v[g, :n, :n] = st.v_store[i]
            rotations = stacked_jacobi_sweep(a, v, st.tol)
            for g, i in enumerate(members):
                n = int(self.sizes[i])
                batch.matrix_view(i)[...] = a[g, :n, :n]
                st.v_store[i][...] = v[g, :n, :n]
                self._record(i, int(rotations[g]))

    def _record(self, i: int, rotations: int) -> None:
        """Per-matrix convergence bookkeeping after one sweep."""
        if rotations == 0:
            self.state.converged[i] = True
        else:
            self.state.sweeps_done[i] = self.sweep + 1


class SvdConvergenceKernel(Kernel):
    """Device-side reduction of the per-matrix convergence flags.

    Models the tiny all-reduce a real gesvj driver runs between sweeps
    to decide whether another sweep launch is needed; moves metadata
    only (the simulated planner fixes the sweep budget up front).
    """

    etm_mode = "classic"
    compute_efficiency = 1.0

    def __init__(self, count: int, precision):
        super().__init__()
        self.count = int(count)
        self._prec = Precision(precision)
        self.name = "svd_conv_reduce"

    @property
    def precision(self) -> Precision:
        return self._prec

    def launch_config(self) -> LaunchConfig:
        return LaunchConfig(threads_per_block=min(256, max(_WARP, self.count)))

    def cost_key(self) -> tuple:
        return (self.count,)

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        count = max(1, self.count)
        return BlockWork.pack([
            BlockWork(
                flops=float(count),
                bytes=8.0 * count,
                serial_iters=float(max(1, count.bit_length())),
                active_threads=min(256, count),
            )
        ])


class SvdFinalizeKernel(_PanelKernelBase):
    """Post-sweep finalize: norms, descending sort, normalize ``U``.

    One block per matrix computes the singular values as column norms,
    reorders columns of ``A`` (which becomes ``U`` in place) and ``V``
    descending, and writes the transposed ``V`` out.
    """

    def __init__(self, sizes, precision, state, max_rows: int):
        super().__init__(sizes, precision, max_rows)
        self.state = state
        self.name = f"vbatched_svd_finalize:{self._info.name}"

    def cost_key(self) -> tuple:
        return (self.max_rows, array_key(self.sizes))

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        w = self._info.flop_weight
        elem = self._info.bytes_per_element
        per = []
        for n in self.sizes.tolist():
            if n == 0:
                per.append((0.0, 0.0, 0.0, 0))
                continue
            # Column norms (2n^2), scale (n^2); permute A and V in
            # global memory.
            per.append((3.0 * n * n * w, 6.0 * n * n * elem, 3.0, min(n, self.max_rows)))
        return self._grouped(per)

    def run_numerics(self, operands) -> None:
        batch = operands[BATCH]
        st = self.state
        for i, n in enumerate(self.sizes.tolist()):
            if n == 0:
                continue
            a = batch.matrix_view(i)
            v = st.v_store[i]
            s = np.sqrt(np.sum(np.abs(a) ** 2, axis=0))
            order = np.argsort(-s, kind="stable")
            s = s[order]
            a[...] = a[:, order]
            v[...] = v[:, order]
            nonzero = s > 0
            a[:, nonzero] = a[:, nonzero] / s[nonzero]
            st.sigma[i, :n] = s.astype(st.sigma.dtype)
            st.vt_store[i] = v.T.copy()


class _FusedSolveKernel(_PanelKernelBase):
    """Shared scaffolding of the fused solves: one RHS view per matrix.

    Launched eagerly, it holds the caller's RHS views; the factored
    batch binds at launch.  The functional plane stacks the factors and right-hand sides of
    each ``(n, nrhs)`` group and solves them through
    :func:`~repro.hostblas.stacked_trsm`, which blocks at 32 columns and
    works slice by slice: a solution is bitwise the same alone, in any
    batch and on any shard (and equal to the reference substitution up
    to rounding).
    """

    def __init__(self, sizes, precision, rhs_views: list, max_rows: int):
        super().__init__(sizes, precision, max_rows)
        if len(rhs_views) != len(sizes):
            raise ValueError("one RHS view per matrix required")
        self.rhs_views = rhs_views

    def cost_key(self) -> tuple:
        """Matrix orders and RHS counts."""
        count = len(self.sizes)
        nrhs = np.fromiter((_nrhs(r) for r in self.rhs_views), dtype=np.int64, count=count)
        return (array_key(self.sizes), nrhs.tobytes())

    def _systems(self, batch):
        """``(i, A_i, B_i)`` for every matrix with a right-hand side,
        ``B_i`` the RHS view as ``(n, nrhs)``."""
        for i, rhs in enumerate(self.rhs_views):
            if rhs is not None and int(self.sizes[i]) > 0:
                yield i, batch.matrix_view(i), rhs if rhs.ndim == 2 else rhs[:, None]

    def _stacked_solve(self, batch, solve) -> None:
        """Run ``solve(members, A, B)`` on each ``(n, nrhs)`` group's
        stacked factors ``A`` and right-hand sides ``B``; ``B`` is
        written back to the RHS views."""
        groups: dict[tuple[int, int], list] = {}
        for system in self._systems(batch):
            groups.setdefault(system[2].shape, []).append(system)
        for group in groups.values():
            b = np.stack([b2d for _, _, b2d in group])
            solve([i for i, _, _ in group], np.stack([a for _, a, _ in group]), b)
            for (_, _, b2d), solved in zip(group, b):
                b2d[...] = solved
            del group, b


class FusedGetrsKernel(_FusedSolveKernel):
    """Fused pivoted forward+backward substitution per matrix (getrs).

    One block per matrix: apply the row interchanges to the RHS, solve
    with unit-lower ``L`` then upper ``U`` — the LU counterpart of the
    fused potrs kernel.
    """

    def __init__(self, sizes, precision, rhs_views: list, ipivs: np.ndarray, max_rows: int):
        super().__init__(sizes, precision, rhs_views, max_rows)
        self.ipivs = ipivs
        self.name = f"fused_getrs:{self._info.name}"

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        w = self._info.flop_weight
        elem = self._info.bytes_per_element
        per = []
        for n, rhs in zip(self.sizes.tolist(), self.rhs_views):
            nrhs = _nrhs(rhs)
            if n == 0 or nrhs == 0:
                per.append((0.0, 0.0, 0.0, 0))
                continue
            flops = 2.0 * _flops.trsm_flops(n, nrhs, side="left") * w
            # Pivot application adds one swap pass over the RHS.
            per.append((flops, (n * n + 3.0 * n * nrhs) * elem, 2.0 * n, n))
        return self._grouped(per)

    def run_numerics(self, operands) -> None:
        batch = operands[BATCH]
        if reference_enabled():
            for i, a, b2d in self._systems(batch):
                apply_pivots(b2d, self.ipivs[i, : a.shape[0]])
                host_trsm("l", "l", "n", "u", 1.0, a, b2d)
                host_trsm("l", "u", "n", "n", 1.0, a, b2d)
            return

        def getrs(members, lu, b):
            n = lu.shape[1]
            for g, i in enumerate(members):
                perm = _row_order(self.ipivs[i, :n], 0, n)
                if perm is not None:
                    b[g] = b[g][perm]
            stacked_trsm(lu, b, lower=True, unit=True)
            stacked_trsm(lu, b, lower=False, unit=False)

        self._stacked_solve(batch, getrs)


class FusedPotrsKernel(_FusedSolveKernel):
    """Fused forward+backward substitution per matrix (potrs).

    One block per matrix holds the right-hand side in shared memory and
    runs both triangular solves back to back — the solve counterpart of
    the fused factorization kernel.
    """

    def __init__(self, sizes, precision, rhs_views: list, max_rows: int):
        super().__init__(sizes, precision, rhs_views, max_rows)
        self.name = f"fused_potrs:{self._info.name}"

    def block_arrays(self) -> tuple[np.ndarray, ...]:
        w = self._info.flop_weight
        elem = self._info.bytes_per_element
        per = []
        for n, rhs in zip(self.sizes.tolist(), self.rhs_views):
            nrhs = _nrhs(rhs)
            if n == 0 or nrhs == 0:
                per.append((0.0, 0.0, 0.0, 0))
                continue
            flops = 2.0 * _flops.trsm_flops(n, nrhs, side="left") * w
            per.append((flops, (n * n + 2.0 * n * nrhs) * elem, 2.0 * n, n))
        return self._grouped(per)

    def run_numerics(self, operands) -> None:
        batch = operands[BATCH]
        if reference_enabled():
            for _, a, b2d in self._systems(batch):
                host_trsm("l", "l", "n", "n", 1.0, a, b2d)
                host_trsm("l", "l", "c", "n", 1.0, a, b2d)
            return

        def potrs(members, l, b):
            stacked_trsm(l, b, lower=True, unit=False)
            stacked_trsm(np.swapaxes(l, 1, 2).conj(), b, lower=False, unit=False)

        self._stacked_solve(batch, potrs)
