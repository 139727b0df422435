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
applies to each.  :data:`SCHEMES` names them for callers that pick a
scheme by name; every name is built only through :func:`make_scheme`.
"""

from typing import Any, Callable

from repro.core.scheme import SummaryScheme
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
    "SCHEMES",
    "make_scheme",
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


#: Schemes by name, with the aliases the experiments print.  Only the
#: histogram takes parameters, its binning, and every caller states it.
#: No seed is passed: neither Gaussian scheme reads one.
SCHEMES: dict[str, Callable[..., SummaryScheme]] = {
    "gm": GaussianMixtureScheme,
    "gaussian_mixture": GaussianMixtureScheme,
    "diagonal": DiagonalGaussianScheme,
    "diagonal_gaussian": DiagonalGaussianScheme,
    "centroid": CentroidScheme,
    "histogram": lambda low, high, bins: HistogramScheme(low, high, bins),
}


def make_scheme(name: str, **params: Any) -> SummaryScheme:
    """The :data:`SCHEMES` scheme ``name``; ``params`` are the histogram's
    ``low``, ``high`` and ``bins``."""
    try:
        build = SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}; choose from {sorted(SCHEMES)}") from None
    return build(**params)
