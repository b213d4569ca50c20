"""The padding baseline: variable sizes through a fixed-size routine.

"The users need to pad the matrices with zeros in order to make them
fixed-size" (paper §IV-F).  Padding embeds each ``n x n`` matrix in the
leading corner of an ``Nmax x Nmax`` buffer whose remaining diagonal is
the identity — keeping the padded matrix SPD so the fixed-size POTRF
still succeeds — then factorizes the whole batch at size ``Nmax``.

Costs modeled exactly as the paper observes: a lot of extra flops
(every matrix pays the ``Nmax`` factorization) and a memory footprint
of ``batch * Nmax^2`` elements that genuinely exhausts the 12 GB card
(the truncated curves of Figs 8-9 come from the
:class:`~repro.errors.DeviceOutOfMemory` this raises).
"""

from __future__ import annotations

import numpy as np

from ..errors import ArgumentError
from ..types import Precision, precision_info
from .batch import VBatch

__all__ = ["pad_to_fixed", "padding_extra_flops"]


def pad_to_fixed(device, sizes: np.ndarray, max_n: int,
                 precision: Precision | str = Precision.D,
                 host_matrices: list[np.ndarray] | None = None) -> VBatch:
    """Build the padded fixed-size batch (allocates ``k * Nmax^2``).

    With ``host_matrices`` given, each is embedded into its padded
    buffer (identity elsewhere); on a timing-only device the padded
    batch is shape-only, still charged ``k * Nmax^2``.  Raises
    :class:`DeviceOutOfMemory` when the padded batch exceeds device
    capacity — deliberately not caught here.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size == 0:
        raise ArgumentError(2, "batch must contain at least one matrix")
    if max_n < int(sizes.max()):
        raise ArgumentError(3, f"max_n={max_n} smaller than largest matrix {int(sizes.max())}")
    prec = Precision(precision)
    padded_sizes = np.full(sizes.size, max_n, dtype=np.int64)
    batch = VBatch.allocate(device, padded_sizes, prec)
    if host_matrices is not None and device.execute_numerics:
        if len(host_matrices) != sizes.size:
            raise ArgumentError(5, "host_matrices length mismatch")
        dtype = precision_info(prec).dtype
        for i, (n, src) in enumerate(zip(sizes, host_matrices)):
            n = int(n)
            buf = batch.matrices[i].data
            buf[...] = np.eye(max_n, dtype=dtype)
            buf[:n, :n] = src
    return batch


def padding_extra_flops(sizes: np.ndarray, max_n: int) -> float:
    """Wasted flops: the padded batch factorizes every matrix at ``Nmax``."""
    from .. import flops as _flops

    sizes = np.asarray(sizes, dtype=np.int64)
    useful = _flops.batch_flops(sizes)
    padded = sizes.size * _flops.potrf_flops(max_n)
    return padded - useful
