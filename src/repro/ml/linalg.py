"""Numerically careful covariance-matrix utilities.

The GM instantiation constantly manipulates covariance matrices that sit at
the edge of validity: singleton collections have *exactly zero* covariance
(Section 5.1's ``valToSummary`` returns a zero matrix), and merged
collections of nearly collinear values are close to singular.  Every
routine here therefore works in terms of symmetrised matrices and uses a
relative ridge when a factorisation is required.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

__all__ = [
    "symmetrize",
    "regularize_covariance",
    "cholesky_with_ridge",
    "cholesky_log_det_batch",
    "triangular_inverse_batch",
    "log_det_and_solve",
    "mahalanobis_squared",
]

#: Relative ridge applied when a covariance must be inverted/factorised.
DEFAULT_RIDGE = 1e-9


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Average a matrix with its transpose, removing float asymmetry.

    Accepts a single ``(d, d)`` matrix or a stack ``(..., d, d)``; the
    transpose is taken over the trailing two axes either way.
    """
    matrix = np.asarray(matrix, dtype=float)
    return (matrix + np.swapaxes(matrix, -2, -1)) / 2.0


def regularize_covariance(cov: np.ndarray, ridge: float = DEFAULT_RIDGE) -> np.ndarray:
    """Return a strictly positive-definite version of ``cov``.

    Adds a ridge proportional to the average variance (or an absolute
    floor for the all-zero matrix), so zero-covariance singletons become
    tiny spheres rather than degenerate points.  Batched: a stack
    ``(..., d, d)`` gets an independently scaled ridge per matrix.
    """
    cov = symmetrize(cov)
    d = cov.shape[-1]
    scale = np.trace(cov, axis1=-2, axis2=-1) / d
    floor = np.maximum(scale * ridge, ridge)
    return cov + floor[..., None, None] * np.eye(d)


def cholesky_with_ridge(cov: np.ndarray, ridge: float = DEFAULT_RIDGE) -> np.ndarray:
    """Lower Cholesky factor, escalating the ridge until factorisation succeeds."""
    cov = symmetrize(cov)
    d = cov.shape[0]
    scale = max(float(np.trace(cov)) / d, 1.0)
    attempt = max(ridge * scale, ridge)
    for _ in range(12):
        try:
            return sla.cholesky(cov + attempt * np.eye(d), lower=True)
        except sla.LinAlgError:
            attempt *= 10.0
    raise sla.LinAlgError("covariance could not be regularised to positive definite")


def cholesky_log_det_batch(
    covs: np.ndarray, ridge: float = DEFAULT_RIDGE, block: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors and log-determinants of a covariance stack.

    ``covs`` has shape ``(k, d, d)`` and must already be regularised
    (see :func:`regularize_covariance`); the whole stack is factorised in
    one LAPACK call.  If any matrix still fails to factorise, the batch
    falls back to per-matrix :func:`cholesky_with_ridge` escalation, so
    callers get the batched speed without losing the robustness of the
    scalar path.  A stack of independent problems passes ``block``, the
    matrices per problem: the fallback then escalates only the blocks
    that fail, and every block gets the factors it gets alone (LAPACK
    factorises each matrix on its own).

    Returns ``(lowers, log_dets)`` with shapes ``(k, d, d)`` and ``(k,)``;
    each log-determinant is read off the factor's diagonal.
    """
    covs = np.asarray(covs, dtype=float)
    try:
        lowers = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        size = block or len(covs)
        parts = []
        for start in range(0, len(covs), size):
            part = covs[start : start + size]
            try:
                parts.append(np.linalg.cholesky(part))
            except np.linalg.LinAlgError:
                parts.append(np.stack([cholesky_with_ridge(cov, ridge) for cov in part]))
        lowers = np.concatenate(parts)
    log_dets = 2.0 * np.sum(np.log(np.diagonal(lowers, axis1=-2, axis2=-1)), axis=-1)
    return lowers, log_dets


def triangular_inverse_batch(lowers: np.ndarray) -> np.ndarray:
    """Explicit inverses of a stack ``(k, d, d)`` of lower-triangular factors.

    The factors in the mixture-reduction hot path are tiny (``d`` is the
    sensor-value dimension), so one batched solve against the identity is
    cheaper than ``k`` Python-level ``solve_triangular`` calls.
    """
    lowers = np.asarray(lowers, dtype=float)
    d = lowers.shape[-1]
    return np.linalg.solve(lowers, np.broadcast_to(np.eye(d), lowers.shape).copy())


def log_det_and_solve(cov: np.ndarray, rhs: np.ndarray, ridge: float = DEFAULT_RIDGE) -> tuple[float, np.ndarray]:
    """Return ``(log det cov, cov^{-1} rhs)`` through one Cholesky factorisation."""
    lower = cholesky_with_ridge(cov, ridge)
    log_det = 2.0 * float(np.sum(np.log(np.diag(lower))))
    solution = sla.cho_solve((lower, True), rhs)
    return log_det, solution


def mahalanobis_squared(
    points: np.ndarray,
    mean: np.ndarray,
    cov: np.ndarray,
    ridge: float = DEFAULT_RIDGE,
) -> np.ndarray:
    """Squared Mahalanobis distance of each row of ``points`` from ``mean``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    centered = points - np.asarray(mean, dtype=float)
    lower = cholesky_with_ridge(cov, ridge)
    solved = sla.solve_triangular(lower, centered.T, lower=True)
    return np.sum(solved**2, axis=0)
