"""Fixed-bin histogram summaries: the related-work comparator.

Haridasan & van Renesse [11] and Sacha et al. [17] estimate distributions
in sensor networks with histograms; the paper contrasts its approach with
theirs (histograms are single-dimensional, and merge distant value groups
that classification must keep apart).  To make that comparison executable,
this module packages a 1-D histogram as *yet another instantiation* of the
generic algorithm: the summary of a collection is its normalised bin-mass
vector over a fixed global binning.

Satisfies R2-R4 exactly (the weighted average of proportion vectors is the
pooled proportion vector), so the convergence theorem covers it too — it
converges, it is just a weaker *classifier*, which is precisely the
ablation benchmark's point.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.collection import Collection
from repro.core.fingerprint import digest_arrays
from repro.core.packed import PackedState
from repro.core.scheme import SummaryScheme
from repro.core.weights import Quantization
from repro.schemes.centroid import greedy_closest_pair_partition, weighted_average_groups

__all__ = ["HistogramScheme"]


class HistogramScheme(SummaryScheme):
    """Summaries are normalised histograms over a fixed 1-D binning.

    Parameters
    ----------
    low, high:
        The value range covered by the bins; values outside are clamped
        into the boundary bins (sensor ranges are bounded in practice).
    bins:
        Number of equal-width bins.
    """

    # Same greedy partition as the centroids scheme: no merge loop fires
    # below the k bound once minimum-weight collections are excluded.
    identity_below_k = True
    supports_packed = True
    supports_fingerprints = True
    identity_partition_style = "greedy"

    def __init__(self, low: float, high: float, bins: int = 32) -> None:
        if not high > low:
            raise ValueError(f"need high > low, got [{low}, {high}]")
        if bins < 2:
            raise ValueError("need at least 2 bins")
        self.low = float(low)
        self.high = float(high)
        self.bins = int(bins)
        self.edges = np.linspace(self.low, self.high, self.bins + 1)

    def _bin_of(self, value: float) -> int:
        index = int(np.searchsorted(self.edges, value, side="right")) - 1
        return min(max(index, 0), self.bins - 1)

    def val_to_summary(self, value: Any) -> np.ndarray:
        scalar = float(np.asarray(value).reshape(-1)[0])
        histogram = np.zeros(self.bins)
        histogram[self._bin_of(scalar)] = 1.0
        return histogram

    def merge_set(self, items: Sequence[tuple[np.ndarray, float]]) -> np.ndarray:
        if not items:
            raise ValueError("cannot merge an empty set")
        total = sum(weight for _, weight in items)
        if total <= 0:
            raise ValueError("merged weight must be positive")
        first = np.asarray(items[0][0], dtype=float)
        if all(np.array_equal(first, histogram) for histogram, _ in items[1:]):
            # Identical proportion vectors pool to themselves, exactly —
            # keeps converged states byte-stable for content addressing.
            return first.copy()
        merged = sum(weight * histogram for histogram, weight in items) / total
        return np.asarray(merged, dtype=float)

    def partition(
        self,
        collections: Sequence[Collection],
        k: int,
        quantization: Quantization,
    ) -> list[list[int]]:
        positions = np.stack([collection.summary for collection in collections])
        weights = np.array([float(collection.quanta) for collection in collections])
        quanta = [collection.quanta for collection in collections]
        return greedy_closest_pair_partition(positions, weights, quanta, k, quantization)

    # ------------------------------------------------------------------
    # Packed hot path (bin-mass vectors as one (l, bins) matrix)
    # ------------------------------------------------------------------
    def pack_summaries(self, summaries: Sequence[np.ndarray]) -> dict[str, np.ndarray]:
        return {"mass": np.stack([np.asarray(s, dtype=float) for s in summaries])}

    def pack_values(self, values: Sequence[Any]) -> dict[str, np.ndarray]:
        scalars = np.asarray(values, dtype=float).reshape(len(values), -1)[:, 0]
        indices = np.searchsorted(self.edges, scalars, side="right") - 1
        indices = np.clip(indices, 0, self.bins - 1)
        mass = np.zeros((len(scalars), self.bins))
        mass[np.arange(len(scalars)), indices] = 1.0
        return {"mass": mass}

    def unpack_summary(self, columns: dict[str, np.ndarray], index: int) -> np.ndarray:
        return np.array(columns["mass"][index], dtype=float)

    def partition_packed(
        self,
        packed: PackedState,
        k: int,
        quantization: Quantization,
    ) -> list[list[int]]:
        return greedy_closest_pair_partition(
            packed.columns["mass"], packed.weights(), packed.quanta, k, quantization
        )

    def merge_set_packed(self, packed: PackedState, group: Sequence[int]) -> np.ndarray:
        # Mirrors merge_set's sequential weighted average exactly.
        masses = packed.columns["mass"]
        quanta = packed.quanta
        first = masses[group[0]]
        if all(np.array_equal(first, masses[i]) for i in group[1:]):
            return np.asarray(first, dtype=float).copy()
        total = sum(float(quanta[i]) for i in group)
        merged = sum(float(quanta[i]) * masses[i] for i in group) / total
        return np.asarray(merged, dtype=float)

    def merge_groups_columns(
        self, packed: PackedState, groups: Sequence[Sequence[int]]
    ) -> dict[str, np.ndarray]:
        return {
            "mass": weighted_average_groups(
                packed.columns["mass"], packed.quanta, groups
            )
        }

    def digest_row(self, columns: dict[str, np.ndarray], index: int) -> bytes:
        return digest_arrays(columns["mass"][index])

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Total-variation distance between the two bin-mass vectors."""
        return 0.5 * float(np.sum(np.abs(np.asarray(a) - np.asarray(b))))

    def summary_digest(self, summary: np.ndarray) -> bytes:
        return digest_arrays(np.asarray(summary, dtype=float))

    def mean_estimate(self, histogram: np.ndarray) -> float:
        """Midpoint-weighted mean implied by a histogram summary."""
        midpoints = (self.edges[:-1] + self.edges[1:]) / 2.0
        mass = np.asarray(histogram, dtype=float)
        return float(np.sum(mass * midpoints) / np.sum(mass))
