"""Diagonal-covariance Gaussian summaries: the lightweight-sensor variant.

The paper motivates its setting with "lightweight nodes with minimal
hardware"; a full covariance matrix costs O(d^2) floats per collection on
the radio and O(d^3) factorisations in every EM step.  This scheme keeps
the Gaussian idea — variance-aware classification, Figure 1's argument —
but restricts covariances to their diagonal: per-dimension variances,
O(d) floats per summary.

Crucially, R2-R4 still hold *exactly*: the diagonal of a moment-matched
covariance depends only on the per-dimension first and second moments, so
per-dimension moment matching is closed under merging (the paper's R4) and
scale-invariant (R3).  The scheme therefore inherits Theorem 1's
convergence guarantee while shipping strictly smaller messages — the
message-size benchmark quantifies the saving.

It is the GM scheme with a merge that keeps only the diagonal: values
summarise to zero (hence diagonal) covariances, and the hard-EM
partition, packing and digests are
:class:`~repro.schemes.gm.GaussianMixtureScheme`'s own.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.packed import PackedState
from repro.schemes.gaussian import GaussianSummary
from repro.schemes.gm import GaussianMixtureScheme

__all__ = ["DiagonalGaussianScheme", "diagonalize"]


def diagonalize(summary: GaussianSummary) -> GaussianSummary:
    """Project a Gaussian summary onto its diagonal covariance."""
    return GaussianSummary.trusted(summary.mean, np.diag(np.diag(summary.cov)))


class DiagonalGaussianScheme(GaussianMixtureScheme):
    """Gaussian summaries restricted to diagonal covariance matrices.

    Behaviourally identical to :class:`~repro.schemes.gm.GaussianMixtureScheme`
    on axis-aligned data; loses the correlation information (the tilt of
    Figure 2's fire-side ellipse) in exchange for O(d) summaries.
    """

    def merge_set(self, items: Sequence[tuple[GaussianSummary, float]]) -> GaussianSummary:
        """Moment-match, then keep only the diagonal.

        Projection commutes with moment matching dimension-by-dimension,
        so R4 holds exactly within the diagonal family (property-tested).
        """
        return diagonalize(super().merge_set(items))

    def merge_groups_columns(
        self, packed: PackedState, members: np.ndarray, sizes: np.ndarray
    ) -> dict[str, np.ndarray]:
        columns = super().merge_groups_columns(packed, members, sizes)
        covs = columns["cov"]
        # Batched diagonalize: fresh zeros with the diagonal copied in,
        # byte-identical to np.diag(np.diag(cov)) per row.
        diag = np.zeros_like(covs)
        axis = np.arange(covs.shape[1])
        diag[:, axis, axis] = covs[:, axis, axis]
        return {"mean": columns["mean"], "cov": diag}
