"""Instantiations of the generic algorithm's summary-scheme contract.

Four schemes ship with the library, in two families:

- :class:`~repro.schemes.centroid.CentroidScheme` — Algorithm 2, the
  k-means-style running example;
- :class:`~repro.schemes.histogram.HistogramScheme` — a 1-D histogram
  scheme modelling the related work the paper contrasts against: the
  centroids scheme over one-hot bin vectors;
- :class:`~repro.schemes.gm.GaussianMixtureScheme` — Section 5's novel
  Gaussian-Mixture algorithm with EM partitioning;
- :class:`~repro.schemes.diagonal.DiagonalGaussianScheme` — the
  lightweight-sensor Gaussian variant with O(d) summaries: the GM scheme
  with a merge that keeps only the diagonal.

All four satisfy requirements R1-R4, so Theorem 1's convergence guarantee
applies to each.
"""

from repro.schemes.centroid import CentroidScheme, greedy_closest_pair_partition
from repro.schemes.diagonal import DiagonalGaussianScheme, diagonalize
from repro.schemes.gaussian import (
    GaussianSummary,
    classification_to_gmm,
    merge_gaussian_summaries,
    summary_from_value,
)
from repro.schemes.gm import GaussianMixtureScheme
from repro.schemes.histogram import HistogramScheme

__all__ = [
    "CentroidScheme",
    "DiagonalGaussianScheme",
    "GaussianMixtureScheme",
    "GaussianSummary",
    "HistogramScheme",
    "classification_to_gmm",
    "diagonalize",
    "greedy_closest_pair_partition",
    "merge_gaussian_summaries",
    "summary_from_value",
]
