"""Covariance hygiene utilities."""

import numpy as np
import pytest

from repro.ml.linalg import (
    cholesky_log_det_batch,
    cholesky_with_ridge,
    log_det_and_solve,
    mahalanobis_squared,
    regularize_covariance,
    symmetrize,
)


class TestSymmetrize:
    def test_already_symmetric_unchanged(self):
        matrix = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(symmetrize(matrix), matrix)

    def test_asymmetry_removed(self):
        matrix = np.array([[1.0, 0.2], [0.4, 1.0]])
        result = symmetrize(matrix)
        assert np.allclose(result, result.T)
        assert result[0, 1] == pytest.approx(0.3)


class TestRegularize:
    def test_zero_matrix_becomes_positive_definite(self):
        result = regularize_covariance(np.zeros((3, 3)))
        eigenvalues = np.linalg.eigvalsh(result)
        assert np.all(eigenvalues > 0)

    def test_singular_matrix_becomes_positive_definite(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        eigenvalues = np.linalg.eigvalsh(regularize_covariance(singular))
        assert np.all(eigenvalues > 0)

    def test_well_conditioned_barely_changed(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.5]])
        assert np.allclose(regularize_covariance(cov), cov, atol=1e-6)


class TestCholesky:
    def test_factor_reconstructs(self):
        cov = np.array([[4.0, 1.0], [1.0, 3.0]])
        lower = cholesky_with_ridge(cov)
        assert np.allclose(lower @ lower.T, cov, atol=1e-6)

    def test_zero_matrix_factors(self):
        lower = cholesky_with_ridge(np.zeros((2, 2)))
        assert np.all(np.isfinite(lower))

    def test_lower_triangular(self):
        lower = cholesky_with_ridge(np.eye(3) * 2.0)
        assert np.allclose(lower, np.tril(lower))


    def test_failing_block_escalates_alone(self, rng):
        """Per-problem blocks: each gets the factors it gets factorised alone."""
        factors = rng.normal(size=(4, 3, 3))
        covs = factors @ np.swapaxes(factors, -1, -2) + np.eye(3)
        covs[3] = -np.eye(3)  # the second block cannot factorise as is
        lowers, log_dets = cholesky_log_det_batch(covs, block=2)
        for start in (0, 2):
            alone, alone_log_dets = cholesky_log_det_batch(covs[start : start + 2])
            assert lowers[start : start + 2].tobytes() == alone.tobytes()
            assert log_dets[start : start + 2].tobytes() == alone_log_dets.tobytes()
        assert lowers[:2].tobytes() == np.linalg.cholesky(covs[:2]).tobytes()


class TestLogDetAndSolve:
    def test_matches_slogdet_and_solve(self, rng):
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + np.eye(3)
        rhs = rng.normal(size=3)
        log_det, solution = log_det_and_solve(cov, rhs)
        assert log_det == pytest.approx(np.linalg.slogdet(cov)[1], rel=1e-6)
        assert np.allclose(solution, np.linalg.solve(cov, rhs), atol=1e-8)


class TestMahalanobis:
    def test_identity_covariance_is_euclidean(self):
        points = np.array([[3.0, 4.0], [0.0, 0.0]])
        distances = mahalanobis_squared(points, np.zeros(2), np.eye(2))
        assert np.allclose(distances, [25.0, 0.0])

    def test_scaling_by_variance(self):
        points = np.array([[2.0]])
        distances = mahalanobis_squared(points, np.zeros(1), np.array([[4.0]]))
        assert distances[0] == pytest.approx(1.0)

    def test_single_point_accepted(self):
        distances = mahalanobis_squared(np.array([1.0, 1.0]), np.zeros(2), np.eye(2))
        assert distances.shape == (1,)
