"""Leading-dimension support end to end (paper §III-A).

"Each matrix is assumed to have a different size and leading
dimension" — the interface carries per-matrix ``lda`` arrays, and the
factorization must operate on the live ``n x n`` window of buffers
whose rows are padded to ``lda``.
"""

import numpy as np
import pytest

from repro import Device, OpOptions, VBatch, make_spd_batch, potrf_vbatched
from repro.hostblas import cholesky_residual


def padded_batch(device, sizes, ldas, seed=0):
    """Build a VBatch with lda-padded buffers and sentinel padding."""
    mats = make_spd_batch(sizes, "d", seed=seed)
    batch = VBatch.allocate(device, sizes, "d", ldas=ldas)
    for i, (n, lda) in enumerate(zip(sizes, ldas)):
        buf = batch.matrices[i].data
        buf[...] = -777.0  # sentinel in the padding rows
        buf[:n, :n] = mats[i]
        batch.sizes_dev.data[i] = n
    return mats, batch


class TestLdaSupport:
    @pytest.mark.parametrize("approach", ["fused", "separated"])
    def test_factorization_respects_lda_padding(self, approach):
        device = Device()
        sizes = [5, 33, 64, 17]
        ldas = [8, 40, 64, 32]  # mixed: padded and exact
        mats, batch = padded_batch(device, sizes, ldas, seed=11)
        res = potrf_vbatched(device, batch, OpOptions(approach=approach, on_error="raise"))
        assert res.failed_count == 0
        for i, (n, lda) in enumerate(zip(sizes, ldas)):
            buf = batch.matrices[i].data
            assert cholesky_residual(mats[i], buf[:n, :n]) < 1e-13
            # Padding rows were never touched.
            if lda > n:
                np.testing.assert_array_equal(buf[n:, :], -777.0)

    def test_download_matrices_strips_padding(self):
        device = Device()
        sizes = [4, 9]
        mats, batch = padded_batch(device, sizes, [16, 12], seed=5)
        outs = batch.download_matrices()
        assert [o.shape for o in outs] == [(4, 4), (9, 9)]

    def test_lu_with_lda_padding(self):
        from repro.extensions import getrf_vbatched
        from repro.hostblas import apply_pivots

        device = Device()
        rng = np.random.default_rng(7)
        sizes = [6, 20]
        ldas = [10, 24]
        batch = VBatch.allocate(device, sizes, "d", ldas=ldas)
        originals = []
        for i, n in enumerate(sizes):
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            batch.matrices[i].data[:n, :n] = a
            originals.append(a)
        res = getrf_vbatched(device, batch)
        assert res.failed_count == 0
        for i, (n, a) in enumerate(zip(sizes, originals)):
            f = batch.matrices[i].data[:n, :n]
            l = np.tril(f, -1) + np.eye(n)
            u = np.triu(f)
            recon = apply_pivots(l @ u, res.outputs["ipivs"][i, :n], forward=False)
            np.testing.assert_allclose(recon, a, atol=1e-9)
