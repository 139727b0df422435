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

Partitioning reuses the same hard-EM reduction as the full GM scheme,
with input and output covariances projected onto their diagonals.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.collection import Collection
from repro.core.packed import PackedState
from repro.core.scheme import SummaryScheme
from repro.core.weights import Quantization
from repro.schemes.gaussian import GaussianSummary
from repro.schemes.gm import GaussianMixtureScheme

__all__ = ["DiagonalGaussianScheme", "diagonalize"]


def diagonalize(summary: GaussianSummary) -> GaussianSummary:
    """Project a Gaussian summary onto its diagonal covariance."""
    return GaussianSummary.trusted(summary.mean, np.diag(np.diag(summary.cov)))


class DiagonalGaussianScheme(SummaryScheme):
    """Gaussian summaries restricted to diagonal covariance matrices.

    Behaviourally identical to :class:`~repro.schemes.gm.GaussianMixtureScheme`
    on axis-aligned data; loses the correlation information (the tilt of
    Figure 2's fire-side ellipse) in exchange for O(d) summaries.
    ``seed`` and ``reduction_iterations`` are as there: the EM reduction
    seeds by deterministic maximin selection and never reads the seed.
    """

    identity_below_k = True  # same reduce_mixture singleton behaviour at l <= k
    supports_packed = True
    supports_fingerprints = True
    identity_partition_style = "em"

    def __init__(self, seed: int = 0, reduction_iterations: int = 25) -> None:
        self._rng = np.random.default_rng(seed)
        self.reduction_iterations = reduction_iterations
        # Delegate the merge arithmetic to the full scheme, then project.
        self._full = GaussianMixtureScheme(seed=seed, reduction_iterations=reduction_iterations)

    def val_to_summary(self, value: Any) -> GaussianSummary:
        return self._full.val_to_summary(value)  # zero matrix is diagonal already

    def merge_set(self, items: Sequence[tuple[GaussianSummary, float]]) -> GaussianSummary:
        """Moment-match, then keep only the diagonal.

        Projection commutes with moment matching dimension-by-dimension,
        so R4 holds exactly within the diagonal family (property-tested).
        """
        return diagonalize(self._full.merge_set(items))

    def distance(self, a: GaussianSummary, b: GaussianSummary) -> float:
        return self._full.distance(a, b)

    def summary_digest(self, summary: GaussianSummary) -> bytes:
        return self._full.summary_digest(summary)

    def partition(
        self,
        collections: Sequence[Collection],
        k: int,
        quantization: Quantization,
    ) -> list[list[int]]:
        # The reduction is deterministic (maximin seeding), so delegating
        # to the full scheme's array core cannot diverge on RNG state.
        return self._full.partition(collections, k, quantization)

    # ------------------------------------------------------------------
    # Packed hot path (same columns as the full scheme)
    # ------------------------------------------------------------------
    def pack_summaries(self, summaries: Sequence[GaussianSummary]) -> dict[str, np.ndarray]:
        return self._full.pack_summaries(summaries)

    def pack_values(self, values: Sequence[Any]) -> dict[str, np.ndarray]:
        return self._full.pack_values(values)  # zero matrices are diagonal

    def unpack_summary(
        self, columns: dict[str, np.ndarray], index: int
    ) -> GaussianSummary:
        return self._full.unpack_summary(columns, index)

    def partition_packed(
        self,
        packed: PackedState,
        k: int,
        quantization: Quantization,
    ) -> list[list[int]]:
        return self._full.partition_packed(packed, k, quantization)

    def partition_packed_batch(
        self,
        problems: Sequence[PackedState],
        k: int,
        quantization: Quantization,
    ) -> list[list[list[int]]]:
        return self._full.partition_packed_batch(problems, k, quantization)

    def merge_set_packed(
        self, packed: PackedState, group: Sequence[int]
    ) -> GaussianSummary:
        return diagonalize(self._full.merge_set_packed(packed, group))

    def merge_groups_columns(
        self, packed: PackedState, groups: Sequence[Sequence[int]]
    ) -> dict[str, np.ndarray]:
        columns = self._full.merge_groups_columns(packed, groups)
        covs = columns["cov"]
        # Batched diagonalize: fresh zeros with the diagonal copied in,
        # byte-identical to np.diag(np.diag(cov)) per row.
        diag = np.zeros_like(covs)
        axis = np.arange(covs.shape[1])
        diag[:, axis, axis] = covs[:, axis, axis]
        return {"mean": columns["mean"], "cov": diag}

    def digest_row(self, columns: dict[str, np.ndarray], index: int) -> bytes:
        return self._full.digest_row(columns, index)
