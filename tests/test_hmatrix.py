"""The hierarchical-matrix compression app (repro.apps.hmatrix)."""

import numpy as np
import pytest

from repro.apps.hmatrix import (
    _kernel_matrix,
    _mixed_stream,
    _q_times_u,
    _ragged_clusters,
    check_hmatrix_acceptance,
    compress_kernel_matrix,
)
from repro.errors import ArgumentError
from repro.hostblas import build_q, stacked_geqrf
from repro.serving import BatchServer


class TestProblemConstruction:
    def test_kernel_matrix_is_spd_like(self):
        k = _kernel_matrix(64, 0.12, seed=1)
        assert k.shape == (64, 64)
        assert np.allclose(k, k.T)
        assert np.all(np.diag(k) == 1.0)
        assert np.all((k > 0.0) & (k <= 1.0))

    def test_clusters_cover_all_points_raggedly(self):
        clusters = _ragged_clusters(384, 24, 72, seed=7)
        assert clusters[0].start == 0 and clusters[-1].stop == 384
        widths = [c.stop - c.start for c in clusters]
        assert all(a.stop == b.start for a, b in zip(clusters, clusters[1:]))
        assert len(set(widths)) > 1  # genuinely ragged
        assert min(widths) >= 24

    def test_mixed_stream_is_deterministic_and_imbalanced(self):
        s1 = _mixed_stream(300, 96, seed=3)
        s2 = _mixed_stream(300, 96, seed=3)
        assert [op for op, _ in s1] == [op for op, _ in s2]
        counts = {op: 0 for op in ("geqrf", "potrf", "gesvj")}
        for op, m in s1:
            counts[op] += 1
            assert 64 <= m.shape[0] <= 96  # the windowing-ratio band
        assert counts["geqrf"] > counts["potrf"] > counts["gesvj"] > 0


def test_stacked_q_times_u_matches_build_q_for_mixed_tile_orders():
    from types import SimpleNamespace

    rng = np.random.default_rng(4)
    qrs, svds = [], []
    for order in (5, 12, 5, 8, 12, 12, 3):
        packed, taus = stacked_geqrf(rng.standard_normal((1, order, order)))
        qrs.append(SimpleNamespace(factor=packed[0], extras={"taus": taus[0]}))
        svds.append(SimpleNamespace(factor=rng.standard_normal((order, order))))
    for qr, svd, qu in zip(qrs, svds, _q_times_u(qrs, svds)):
        want = build_q(qr.factor, qr.extras["taus"]) @ svd.factor
        np.testing.assert_allclose(qu, want, rtol=1e-12, atol=1e-12)


class TestCompression:
    @pytest.fixture(scope="class")
    def result(self):
        server = BatchServer(policy="cross-op", max_batch=64)
        res = compress_kernel_matrix(
            server, n_points=192, min_cluster=20, max_cluster=48, seed=5
        )
        server.shutdown(drain=True)
        return res

    def test_tol_validated(self):
        server = BatchServer(policy="cross-op")
        with pytest.raises(ArgumentError, match="tol"):
            compress_kernel_matrix(server, n_points=64, tol=0.0)
        server.shutdown(drain=True)

    def test_every_tile_reconstructs_within_tolerance(self, result):
        assert result.ranks  # some admissible tiles existed
        assert result.max_rel_error <= 50 * result.tol
        assert result.potrf_failures == 0

    def test_low_rank_structure_is_exploited(self, result):
        assert 0.0 < result.compression_ratio < 1.0
        assert result.max_rank < 20  # smooth kernel => tiny ranks
        assert result.stored_entries < result.dense_entries

    def test_all_three_ops_went_through_the_server(self, result):
        ops = result.serving["ops"]
        assert set(ops) == {"geqrf", "gesvj", "potrf"}
        # One QR and one SVD per admissible tile, one Cholesky per cluster.
        assert ops["geqrf"]["matrices"] == len(result.ranks)
        assert ops["gesvj"]["matrices"] == len(result.ranks)
        assert ops["potrf"]["matrices"] == result.clusters


class TestAcceptanceGate:
    def _good_report(self):
        return {
            "config": {"tol": 1e-6},
            "compression": {
                "potrf_failures": 0,
                "max_rel_error": 1e-7,
                "tiles_compressed": 10,
                "compression_ratio": 0.4,
                "serving_ops": {"potrf": {}, "geqrf": {}, "gesvj": {}},
            },
            "mixed_serving": {
                "comparison": {
                    "throughput_speedup": 2.0,
                    "waste_pct_shared": 30.0,
                    "waste_pct_segregated": 30.0,
                }
            },
        }

    def test_clean_report_passes(self):
        assert check_hmatrix_acceptance(self._good_report()) == []

    def test_each_regression_is_flagged(self):
        cases = [
            (("compression", "potrf_failures"), 2, "Cholesky"),
            (("compression", "max_rel_error"), 1.0, "reconstruction error"),
            (("compression", "tiles_compressed"), 0, "no admissible tiles"),
            (("compression", "compression_ratio"), 0.95, "compression ratio"),
            (("mixed_serving", "comparison", "throughput_speedup"), 0.9, "speedup"),
            (("mixed_serving", "comparison", "waste_pct_shared"), 31.0, "waste"),
        ]
        for path, value, needle in cases:
            report = self._good_report()
            node = report
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            failures = check_hmatrix_acceptance(report)
            assert any(needle in f for f in failures), (path, failures)

    def test_missing_op_in_metrics_is_flagged(self):
        report = self._good_report()
        del report["compression"]["serving_ops"]["gesvj"]
        assert any("gesvj" in f for f in check_hmatrix_acceptance(report))
