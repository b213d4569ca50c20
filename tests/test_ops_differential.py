"""Differential tests: planner-path factorizations vs numpy/scipy.

Every plannable op runs through its planner (``run_op_vbatched`` /
the extension wrappers) on a numerics-on device and is checked against
the reference dense library on the same inputs — across precisions and
ragged size distributions.  The hypothesis block fuzzes the size
vectors; the parametrized block pins the precision sweep.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from repro import distributions as dist
from repro.core.batch import VBatch
from repro.device import Device
from repro.extensions import geqrf_vbatched, gesvj_vbatched, getrf_vbatched
from repro.hostblas import build_q

_RTOL = {"s": 2e-4, "d": 1e-10, "c": 2e-4, "z": 1e-10}
_DTYPE = {"s": np.float32, "d": np.float64, "c": np.complex64, "z": np.complex128}


def _random_matrices(sizes, prec, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for n in sizes:
        a = rng.standard_normal((n, n))
        if prec in "cz":
            a = a + 1j * rng.standard_normal((n, n))
        out.append(np.ascontiguousarray(a.astype(_DTYPE[prec])))
    return out


def _run(op_fn, matrices, prec, **kw):
    dev = Device()
    batch = VBatch.from_host(dev, matrices)
    result = op_fn(dev, batch, max_n=max(m.shape[0] for m in matrices), **kw)
    factors = batch.download_matrices()
    batch.free()
    return result, factors


class TestGeqrfDifferential:
    @pytest.mark.parametrize("prec", ["s", "d", "c", "z"])
    def test_r_matches_numpy_qr(self, prec):
        sizes = [24, 17, 9, 33, 2]
        mats = _random_matrices(sizes, prec, seed=1)
        result, factors = _run(geqrf_vbatched, mats, prec)
        for i, (a, f) in enumerate(zip(mats, factors)):
            n = a.shape[0]
            r_ours = np.triu(f[:n, :n])
            _, r_ref = np.linalg.qr(a)
            # QR is unique up to column signs of Q / row phases of R.
            scale = np.where(np.abs(np.diag(r_ref)) > 0,
                             np.diag(r_ours) / np.diag(r_ref), 1.0)
            assert np.allclose(r_ours, scale[:, None] * r_ref,
                               rtol=_RTOL[prec], atol=_RTOL[prec]), f"matrix {i}"

    @pytest.mark.parametrize("prec", ["s", "d"])
    def test_q_r_reconstructs_input(self, prec):
        sizes = [31, 8, 20]
        mats = _random_matrices(sizes, prec, seed=2)
        result, factors = _run(geqrf_vbatched, mats, prec)
        for i, (a, f) in enumerate(zip(mats, factors)):
            n = a.shape[0]
            q = build_q(f[:n, :n], result.outputs["taus"][i, :n])
            assert np.allclose(q @ np.triu(f[:n, :n]), a,
                               rtol=_RTOL[prec], atol=_RTOL[prec] * n)


class TestGetrfDifferential:
    @pytest.mark.parametrize("prec", ["s", "d"])
    def test_matches_scipy_lu_factor(self, prec):
        sizes = [19, 30, 5, 12]
        mats = _random_matrices(sizes, prec, seed=3)
        result, factors = _run(getrf_vbatched, mats, prec)
        for i, (a, f) in enumerate(zip(mats, factors)):
            n = a.shape[0]
            lu_ref, piv_ref = scipy.linalg.lu_factor(a)
            assert np.allclose(f[:n, :n], lu_ref,
                               rtol=_RTOL[prec], atol=_RTOL[prec] * n), f"matrix {i}"
            # Ours are 1-based pivot rows; scipy's are 0-based.
            assert np.array_equal(result.outputs["ipivs"][i, :n] - 1, piv_ref)
            assert result.infos[i] == 0

    @pytest.mark.parametrize("prec", ["c", "z"])
    def test_complex_lu_reconstructs(self, prec):
        """Complex pivot magnitude conventions may legitimately differ
        from the reference LAPACK, so assert P L U = A instead."""
        sizes = [13, 21]
        mats = _random_matrices(sizes, prec, seed=3)
        result, factors = _run(getrf_vbatched, mats, prec)
        for i, (a, f) in enumerate(zip(mats, factors)):
            n = a.shape[0]
            lu = f[:n, :n]
            l = np.tril(lu, -1) + np.eye(n, dtype=lu.dtype)
            rebuilt = l @ np.triu(lu)
            for k in reversed(range(n)):
                p = int(result.outputs["ipivs"][i, k]) - 1
                if p != k:
                    rebuilt[[k, p]] = rebuilt[[p, k]]
            assert np.allclose(rebuilt, a, rtol=_RTOL[prec], atol=_RTOL[prec] * n)
            assert result.infos[i] == 0


class TestGesvjDifferential:
    @pytest.mark.parametrize("prec", ["s", "d"])
    def test_singular_values_match_numpy(self, prec):
        sizes = [22, 7, 15]
        mats = _random_matrices(sizes, prec, seed=4)
        result, factors = _run(gesvj_vbatched, mats, prec)
        for i, a in enumerate(mats):
            n = a.shape[0]
            sigma = result.outputs["singular_values"][i, :n]
            ref = np.linalg.svd(a, compute_uv=False)
            assert np.all(np.diff(sigma) <= 1e-12 * max(sigma[0], 1.0))
            assert np.allclose(sigma, ref, rtol=50 * _RTOL[prec],
                               atol=50 * _RTOL[prec] * sigma[0])

    def test_full_decomposition_reconstructs(self):
        sizes = [18, 11]
        mats = _random_matrices(sizes, "d", seed=5)
        result, factors = _run(gesvj_vbatched, mats, "d")
        for i, (a, u) in enumerate(zip(mats, factors)):
            n = a.shape[0]
            sigma = result.outputs["singular_values"][i, :n]
            vt = result.outputs["vt"][i]
            rebuilt = u[:n, :n] @ (sigma[:, None] * vt)
            assert np.allclose(rebuilt, a, rtol=1e-8, atol=1e-8 * n)
            # U and V orthogonal.
            assert np.allclose(u[:n, :n].T @ u[:n, :n], np.eye(n), atol=1e-8)
            assert np.allclose(vt @ vt.T, np.eye(n), atol=1e-8)


@settings(max_examples=12, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=48), min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_ragged_geqrf_and_getrf_reconstruct(sizes, seed):
    """Fuzzed ragged batches: QR and LU must reproduce their inputs."""
    mats = _random_matrices(sizes, "d", seed=seed)
    qr_result, qr_factors = _run(geqrf_vbatched, mats, "d")
    lu_result, lu_factors = _run(getrf_vbatched, mats, "d")
    for i, a in enumerate(mats):
        n = a.shape[0]
        q = build_q(qr_factors[i][:n, :n], qr_result.outputs["taus"][i, :n])
        assert np.allclose(q @ np.triu(qr_factors[i][:n, :n]), a, atol=1e-9 * max(n, 4))
        lu = lu_factors[i][:n, :n]
        l = np.tril(lu, -1) + np.eye(n)
        u = np.triu(lu)
        rebuilt = l @ u
        # Undo the row swaps getrf applied (1-based pivot rows).
        for k in reversed(range(n)):
            p = int(lu_result.outputs["ipivs"][i, k]) - 1
            if p != k:
                rebuilt[[k, p]] = rebuilt[[p, k]]
        assert np.allclose(rebuilt, a, atol=1e-9 * max(n, 4))


@settings(max_examples=6, deadline=None)
@given(
    dist_name=st.sampled_from(["uniform", "bimodal", "exponential"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_distribution_sampled_svd_values(dist_name, seed):
    """Singular values stay right across the paper's size distributions."""
    sizes = dist.generate_sizes(dist_name, 6, 40, seed=seed)
    sizes = np.maximum(sizes, 1)
    mats = _random_matrices([int(n) for n in sizes], "d", seed=seed + 1)
    result, _ = _run(gesvj_vbatched, mats, "d")
    for i, a in enumerate(mats):
        n = a.shape[0]
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(result.outputs["singular_values"][i, :n], ref,
                           rtol=1e-8, atol=1e-8 * max(ref[0], 1.0))
