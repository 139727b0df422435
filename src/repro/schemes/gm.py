"""The Gaussian-Mixture instantiation (Section 5): EM-driven partitioning.

Collections are weighted Gaussians, classifications Gaussian Mixtures, and
classification decisions are made with the Expectation Maximization
heuristic: when a node holds more than ``k`` collections, the EM-based
mixture reduction of :mod:`repro.ml.reduction` groups them so the reduced
``k``-GM approximately maximises the likelihood of the full set.

The paper motivates this over centroids with Figure 1: distance to a
centroid ignores a collection's spread, whereas the Gaussian summary's
covariance lets a wide collection claim values a tight one would steal.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.core.collection import Collection
from repro.core.fingerprint import digest_array_rows, digest_arrays
from repro.core.packed import PackedState, flatten_groups, split_groups
from repro.core.scheme import SummaryScheme
from repro.core.weights import Quantization
from repro.ml.gaussian import pool_moments_groups
from repro.ml import reduction
from repro.ml.reduction import reduce_mixture, reduce_mixture_batch
from repro.schemes.gaussian import (
    GaussianSummary,
    merge_gaussian_summaries,
    summary_from_value,
)

__all__ = ["GaussianMixtureScheme"]


class GaussianMixtureScheme(SummaryScheme):
    """Summaries are weighted Gaussians; ``partition`` runs hard EM.

    Parameters
    ----------
    seed:
        Accepted for API stability and not read: the EM reduction seeds
        its groups by deterministic maximin selection, so runs do not
        depend on the seed and distinct nodes may share one scheme
        instance.
    reduction_iterations:
        Cap on EM iterations per ``partition`` call.  The paper's nodes
        "run EM once for the entire set" per receipt; a small cap keeps
        per-message work bounded without hurting quality measurably.
    """

    identity_below_k = True  # reduce_mixture returns singletons at l <= k
    supports_packed = True
    supports_fingerprints = True
    identity_partition_style = "em"

    def __init__(self, seed: int = 0, reduction_iterations: int = 25) -> None:
        self.reduction_iterations = reduction_iterations

    # ------------------------------------------------------------------
    # Instantiation functions (Section 5.1)
    # ------------------------------------------------------------------
    def val_to_summary(self, value: Any) -> GaussianSummary:
        return summary_from_value(value)

    def merge_set(self, items: Sequence[tuple[GaussianSummary, float]]) -> GaussianSummary:
        return merge_gaussian_summaries(items)

    def distance(self, a: GaussianSummary, b: GaussianSummary) -> float:
        """``d_S`` "as in the centroids algorithm": L2 between means."""
        return float(np.linalg.norm(a.mean - b.mean))

    def summary_digest(self, summary: GaussianSummary) -> bytes:
        return digest_arrays(summary.mean, summary.cov)

    # ------------------------------------------------------------------
    # Expectation Maximization partitioning (Section 5.2)
    # ------------------------------------------------------------------
    def partition(
        self,
        collections: Sequence[Collection],
        k: int,
        quantization: Quantization,
    ) -> list[list[int]]:
        weights = np.array([float(collection.quanta) for collection in collections])
        means = np.stack([collection.summary.mean for collection in collections])
        covs = np.stack([collection.summary.cov for collection in collections])
        quanta = [collection.quanta for collection in collections]
        return self._partition_arrays(weights, means, covs, quanta, k, quantization)

    def _partition_arrays(
        self,
        weights: np.ndarray,
        means: np.ndarray,
        covs: np.ndarray,
        quanta: Sequence[int],
        k: int,
        quantization: Quantization,
    ) -> list[list[int]]:
        """Shared array-native core of the object and packed paths."""
        result = reduce_mixture(
            weights,
            means,
            covs,
            k,
            max_iterations=self.reduction_iterations,
            build_model=False,
        )
        groups = [list(group) for group in result.groups]
        return self._enforce_minimum_weight_rule(groups, quanta, means, quantization)

    # ------------------------------------------------------------------
    # Packed hot path
    # ------------------------------------------------------------------
    def pack_summaries(self, summaries: Sequence[GaussianSummary]) -> dict[str, np.ndarray]:
        return {
            "mean": np.stack([summary.mean for summary in summaries]),
            "cov": np.stack([summary.cov for summary in summaries]),
        }

    def pack_values(self, values: Sequence[Any]) -> dict[str, np.ndarray]:
        array = np.asarray(values, dtype=float)
        if array.ndim == 1:
            array = array[:, None]
        count, dimension = array.shape
        return {
            "mean": np.ascontiguousarray(array),
            "cov": np.zeros((count, dimension, dimension)),
        }

    def unpack_summary(
        self, columns: dict[str, np.ndarray], index: int
    ) -> GaussianSummary:
        return GaussianSummary.trusted(
            np.array(columns["mean"][index], dtype=float),
            np.array(columns["cov"][index], dtype=float),
        )

    def partition_packed(
        self,
        packed: PackedState,
        k: int,
        quantization: Quantization,
    ) -> list[list[int]]:
        return self._partition_arrays(
            packed.weights(),
            packed.columns["mean"],
            packed.columns["cov"],
            packed.quanta,
            k,
            quantization,
        )

    def partition_packed_batch(
        self, pooled: PackedState, bounds: Sequence[int], k: int, quantization: Quantization
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacks of equal pooled size, each gathered one ``_BATCH_ROWS`` slice
        at a time for :func:`~repro.ml.reduction.reduce_mixture_batch`; a
        stable sort of each problem's labels lays its groups out in
        :meth:`partition_packed`'s order.  Only the problems one array test
        flags with a lone minimum-weight group take the rule, one at a time.
        """
        bounds = np.asarray(bounds, dtype=np.intp)
        lengths = np.diff(bounds)
        quanta, means, covs = pooled.quanta, pooled.columns["mean"], pooled.columns["cov"]
        total = int(bounds[-1])
        members = np.arange(total)
        opens = np.ones(total, dtype=bool)  # members[i] is the first of its group
        for size in np.unique(lengths[lengths > k]).tolist():
            starts = bounds[:-1][lengths == size]
            step = max(1, reduction._BATCH_ROWS // size)
            for low in range(0, len(starts), step):
                rows = starts[low : low + step, None] + np.arange(size)
                labels = reduce_mixture_batch(
                    quanta[rows].astype(float), means[rows], covs[rows], k,
                    self.reduction_iterations,
                )[0]
                order = np.argsort(labels, axis=1, kind="stable")
                ordered = np.take_along_axis(labels, order, axis=1)
                members[rows] = rows[:, :1] + order
                opens[rows[:, 1:]] = ordered[:, 1:] != ordered[:, :-1]
        heads = np.flatnonzero(opens)
        lone = members[heads[np.diff(heads, append=total) == 1]]
        lone = lone[quantization.is_minimum(quanta[lone])]
        for p in np.unique(np.searchsorted(bounds, lone, side="right") - 1).tolist():
            low, high = bounds[p : p + 2].tolist()
            own = np.diff(np.flatnonzero(opens[low:high]), append=high - low)
            (groups,) = split_groups(members[low:high], own, [low, high])
            groups = self._enforce_minimum_weight_rule(
                groups, quanta[low:high], means[low:high], quantization
            )
            members[low:high], own = flatten_groups([groups], [low])
            opens[low:high] = False
            opens[low + np.cumsum(own) - own] = True
        return members, np.diff(np.flatnonzero(opens), append=total)

    def merge_groups_columns(
        self, packed: PackedState, members: np.ndarray, sizes: np.ndarray
    ) -> dict[str, np.ndarray]:
        means, covs = pool_moments_groups(
            packed.quanta, packed.columns["mean"], packed.columns["cov"], members, sizes
        )
        return {"mean": means, "cov": covs}

    def digest_row(self, columns: dict[str, np.ndarray], index: int) -> bytes:
        return digest_arrays(columns["mean"][index], columns["cov"][index])

    def digest_rows(self, columns: dict[str, np.ndarray]) -> list[bytes]:
        return digest_array_rows(columns["mean"], columns["cov"])

    @staticmethod
    def _enforce_minimum_weight_rule(
        groups: list[list[int]],
        quanta: Sequence[int],
        means: np.ndarray,
        quantization: Quantization,
    ) -> list[list[int]]:
        """Fold lone minimum-weight collections into their nearest group.

        Section 4.1's conformance rule 2: no partition group may consist of
        a single collection of weight ``q``.  EM occasionally isolates such
        a collection; it is then attached to the group with the nearest
        mean, which is also what the likelihood objective would prefer
        among the feasible repairs.
        """
        if len(quanta) <= 1:
            return groups
        repaired = True
        while repaired and len(groups) > 1:
            repaired = False
            for g, group in enumerate(groups):
                is_lone_minimum = len(group) == 1 and quantization.is_minimum(
                    int(quanta[group[0]])
                )
                if not is_lone_minimum:
                    continue
                lone_mean = means[group[0]]
                best: Optional[int] = None
                best_distance = np.inf
                for other_index, other in enumerate(groups):
                    if other_index == g:
                        continue
                    other_mean = np.mean(means[list(other)], axis=0)
                    distance = float(np.linalg.norm(lone_mean - other_mean))
                    if distance < best_distance:
                        best_distance = distance
                        best = other_index
                assert best is not None
                groups[best].extend(group)
                del groups[g]
                repaired = True
                break
        return groups
