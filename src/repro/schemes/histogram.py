"""Fixed-bin histogram summaries: the related-work comparator.

Haridasan & van Renesse [11] and Sacha et al. [17] estimate distributions
in sensor networks with histograms; the paper contrasts its approach with
theirs (histograms are single-dimensional, and merge distant value groups
that classification must keep apart).  To make that comparison executable,
this module packages a 1-D histogram as *yet another instantiation* of the
generic algorithm: the summary of a collection is its normalised bin-mass
vector over a fixed global binning.

A collection's histogram is the centroid of its values' one-hot bin
vectors, so the scheme *is* the centroids scheme over that embedding:
merging (the weighted average of proportion vectors is the pooled
proportion vector), partitioning, packing and digests are inherited from
:class:`~repro.schemes.centroid.CentroidScheme`.  R2-R4 hold exactly, so
the convergence theorem covers it too — it converges, it is just a weaker
*classifier*, which is precisely the ablation benchmark's point.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.schemes.centroid import CentroidScheme

__all__ = ["HistogramScheme"]


class HistogramScheme(CentroidScheme):
    """Summaries are normalised histograms over a fixed 1-D binning.

    The centroids scheme over one-hot bin vectors: only the embedding
    (``val_to_summary`` / ``pack_values``), the distance (total variation)
    and the mean estimate are the histogram's own.

    Parameters
    ----------
    low, high:
        The value range covered by the bins; values outside are clamped
        into the boundary bins (sensor ranges are bounded in practice).
    bins:
        Number of equal-width bins.
    """

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

    def pack_values(self, values: Sequence[Any]) -> dict[str, np.ndarray]:
        scalars = np.asarray(values, dtype=float).reshape(len(values), -1)[:, 0]
        indices = np.searchsorted(self.edges, scalars, side="right") - 1
        indices = np.clip(indices, 0, self.bins - 1)
        mass = np.zeros((len(scalars), self.bins))
        mass[np.arange(len(scalars)), indices] = 1.0
        return {"position": mass}

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Total-variation distance between the two bin-mass vectors."""
        return 0.5 * float(np.sum(np.abs(np.asarray(a) - np.asarray(b))))

    def mean_estimate(self, histogram: np.ndarray) -> float:
        """Midpoint-weighted mean implied by a histogram summary."""
        midpoints = (self.edges[:-1] + self.edges[1:]) / 2.0
        mass = np.asarray(histogram, dtype=float)
        return float(np.sum(mass * midpoints) / np.sum(mass))
