"""Multivariate normal distributions: densities, sampling, moments.

Implemented from scratch on top of :mod:`repro.ml.linalg` so the library
has no dependency beyond numpy/scipy linear algebra.  All density routines
are vectorised over points and tolerant of (regularised) zero covariances,
since singleton collections in the GM scheme carry exactly-zero covariance
matrices.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import linalg as sla

from repro.ml.linalg import cholesky_with_ridge, symmetrize

__all__ = [
    "log_density",
    "density",
    "sample",
    "kl_divergence",
    "pool_moments",
    "pool_moments_groups",
    "expected_log_density",
]

_LOG_2PI = math.log(2.0 * math.pi)


def log_density(points: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Log-density of a multivariate normal at each row of ``points``.

    Accepts a single point (1-D) or a matrix of points (2-D); always
    returns a 1-D array of log-densities.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    mean = np.asarray(mean, dtype=float)
    d = mean.shape[0]
    lower = cholesky_with_ridge(cov)
    log_det = 2.0 * float(np.sum(np.log(np.diag(lower))))
    centered = points - mean
    solved = sla.solve_triangular(lower, centered.T, lower=True)
    mahal = np.sum(solved**2, axis=0)
    return -0.5 * (d * _LOG_2PI + log_det + mahal)


def density(points: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Density of a multivariate normal at each row of ``points``."""
    return np.exp(log_density(points, mean, cov))


def sample(rng: np.random.Generator, mean: np.ndarray, cov: np.ndarray, size: int) -> np.ndarray:
    """Draw ``size`` samples from N(mean, cov) via Cholesky transform."""
    mean = np.asarray(mean, dtype=float)
    d = mean.shape[0]
    lower = cholesky_with_ridge(cov)
    standard = rng.standard_normal((size, d))
    return mean + standard @ lower.T


def kl_divergence(
    mean0: np.ndarray,
    cov0: np.ndarray,
    mean1: np.ndarray,
    cov1: np.ndarray,
) -> float:
    """KL(N0 || N1) between two multivariate normals (closed form)."""
    mean0 = np.asarray(mean0, dtype=float)
    mean1 = np.asarray(mean1, dtype=float)
    d = mean0.shape[0]
    lower1 = cholesky_with_ridge(cov1)
    lower0 = cholesky_with_ridge(cov0)
    log_det1 = 2.0 * float(np.sum(np.log(np.diag(lower1))))
    log_det0 = 2.0 * float(np.sum(np.log(np.diag(lower0))))
    solved_cov = sla.cho_solve((lower1, True), symmetrize(np.asarray(cov0, dtype=float)))
    trace_term = float(np.trace(solved_cov))
    diff = mean1 - mean0
    solved_diff = sla.cho_solve((lower1, True), diff)
    quad = float(diff @ solved_diff)
    return 0.5 * (trace_term + quad - d + log_det1 - log_det0)


def expected_log_density(
    mean_inner: np.ndarray,
    cov_inner: np.ndarray,
    mean_outer: np.ndarray,
    cov_outer: np.ndarray,
) -> float:
    """E_{x ~ N(mean_inner, cov_inner)}[ log N(x; mean_outer, cov_outer) ].

    The quantity the mixture-reduction E-step scores candidate groupings
    with: how well an outer Gaussian explains samples drawn from an inner
    one.  Closed form::

        -1/2 (d log 2pi + log|S| + tr(S^-1 C) + (m - u)^T S^-1 (m - u))

    with ``S = cov_outer``, ``C = cov_inner``, ``u = mean_inner`` and
    ``m = mean_outer``.
    """
    mean_inner = np.asarray(mean_inner, dtype=float)
    mean_outer = np.asarray(mean_outer, dtype=float)
    d = mean_inner.shape[0]
    lower = cholesky_with_ridge(cov_outer)
    log_det = 2.0 * float(np.sum(np.log(np.diag(lower))))
    solved_cov = sla.cho_solve((lower, True), symmetrize(np.asarray(cov_inner, dtype=float)))
    trace_term = float(np.trace(solved_cov))
    diff = mean_inner - mean_outer
    solved_diff = sla.cho_solve((lower, True), diff)
    quad = float(diff @ solved_diff)
    return -0.5 * (d * _LOG_2PI + log_det + trace_term + quad)


def pool_moments(
    weights: Sequence[float] | np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Moment-match a weighted set of Gaussians into one Gaussian.

    Returns the mean and covariance of the mixture as a whole::

        mu    = sum_i w_i mu_i / W
        sigma = sum_i w_i (Sigma_i + (mu_i - mu)(mu_i - mu)^T) / W

    This is exactly the GM scheme's ``mergeSet`` (Section 5.1): merging
    collections and summarising equals summarising and merging, i.e. the
    result matches the moments of the pooled underlying weighted values —
    which is what makes requirement R4 hold.
    """
    weights = np.asarray(weights, dtype=float)
    means = np.atleast_2d(np.asarray(means, dtype=float))
    covs = np.asarray(covs, dtype=float)
    if covs.ndim == 2:
        covs = covs[None, :, :]
    if weights.ndim != 1 or weights.shape[0] != means.shape[0]:
        raise ValueError("weights and means must align")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative with positive total")
    if (means == means[0]).all() and (covs == covs[0]).all():
        # Pooling byte-identical components is the identity.  Computing it
        # exactly (instead of through the weighted sums below, which pick
        # up float dust) keeps converged gossip states byte-stable, which
        # the content-addressed merge cache depends on.
        return means[0].copy(), symmetrize(covs[0])
    total = weights.sum()
    mean = (weights[:, None] * means).sum(axis=0) / total
    centered = means - mean
    scatter = np.einsum("i,ij,ik->jk", weights, centered, centered)
    within = np.einsum("i,ijk->jk", weights, covs)
    cov = symmetrize((within + scatter) / total)
    return mean, cov


def pool_moments_groups(
    quanta: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
    members: np.ndarray,
    sizes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pool_moments` over many row groups at once (the GM merge).

    Group ``g`` holds the next ``sizes[g]`` rows of ``members`` (a flat
    grouping).  Byte-parity contract with :func:`pool_moments` per group:
    identical components short-circuit to ``(mean[0],
    symmetrize(cov[0]))``; otherwise the weighted mean, scatter and
    within-group terms are computed with the same lane lengths and the
    same sequential einsum contractions, so every intermediate rounds
    identically.  numpy's pairwise summation splits a reduction by its
    lane length only, so groups are bucketed by size and each bucket's
    ``(G, m, ...)`` block is reduced over axis 1 in one shot.
    """
    d = means.shape[1]
    starts = np.cumsum(sizes) - sizes
    buckets = np.unique(sizes).tolist()
    single_bucket = len(buckets) == 1
    out_means = out_covs = None
    if not single_bucket:
        out_means = np.empty((len(sizes), d))
        out_covs = np.empty((len(sizes), d, d))
    for m in buckets:
        gids = np.flatnonzero(sizes == m)
        idx = members[starts[gids, None] + np.arange(m)]
        sub_means = means[idx]  # (G, m, d)
        sub_covs = covs[idx]  # (G, m, d, d)
        if m == 1:
            mean = sub_means[:, 0].copy()
            cov = symmetrize(sub_covs[:, 0])
        else:
            identical = (sub_means == sub_means[:, :1]).all(axis=(1, 2)) & (
                sub_covs == sub_covs[:, :1]
            ).all(axis=(1, 2, 3))
            w = quanta[idx].astype(float)
            total = w.sum(axis=1)
            mean = (w[:, :, None] * sub_means).sum(axis=1) / total[:, None]
            centered = sub_means - mean[:, None, :]
            scatter = np.einsum("gi,gij,gik->gjk", w, centered, centered)
            within = np.einsum("gi,gijk->gjk", w, sub_covs)
            cov = symmetrize((within + scatter) / total[:, None, None])
            if identical.any():
                mean = np.where(identical[:, None], sub_means[:, 0], mean)
                cov = np.where(
                    identical[:, None, None], symmetrize(sub_covs[:, 0]), cov
                )
        if single_bucket:
            return mean, cov
        assert out_means is not None and out_covs is not None
        out_means[gids] = mean
        out_covs[gids] = cov
    return out_means, out_covs
