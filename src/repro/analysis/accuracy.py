"""Accuracy metrics: mean-estimation error and mixture recovery.

The quantities the paper plots: per-node error of an estimated mean
against the true mean (Figures 3 and 4), and — implicitly in Figure 2's
"visibly a usable estimation" claim — how closely a recovered Gaussian
mixture matches the generating one, which this module makes quantitative
via an optimal component matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.ml.gmm import GaussianMixtureModel

__all__ = [
    "mean_error",
    "average_error",
    "ComponentMatch",
    "GmmRecovery",
    "match_mixtures",
]


def mean_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    """L2 distance between an estimated and a true mean."""
    return float(np.linalg.norm(np.asarray(estimate, dtype=float) - np.asarray(truth, dtype=float)))


def average_error(estimates: Iterable[np.ndarray], truth: np.ndarray) -> float:
    """Average over nodes of the mean-estimation error.

    The paper's error metric: "the average over all nodes of the distance
    between the estimated mean and the true mean".
    """
    errors = [mean_error(estimate, truth) for estimate in estimates]
    if not errors:
        raise ValueError("average_error requires at least one estimate")
    return float(np.mean(errors))


@dataclass(frozen=True)
class ComponentMatch:
    """One matched (estimated, true) component pair."""

    estimated_index: int
    true_index: int
    mean_distance: float
    weight_error: float
    cov_frobenius_error: float


@dataclass(frozen=True)
class GmmRecovery:
    """How well an estimated mixture recovers a reference mixture."""

    matches: tuple[ComponentMatch, ...]
    unmatched_estimated: tuple[int, ...]
    unmatched_true: tuple[int, ...]

    @property
    def max_mean_distance(self) -> float:
        return max(match.mean_distance for match in self.matches)

    @property
    def max_weight_error(self) -> float:
        return max(match.weight_error for match in self.matches)

    @property
    def total_matched_weight_error(self) -> float:
        return sum(match.weight_error for match in self.matches)


def match_mixtures(
    estimated: GaussianMixtureModel,
    true: GaussianMixtureModel,
) -> GmmRecovery:
    """Optimal (Hungarian) matching of estimated to true components.

    Cost is the distance between component means — the same pseudo-metric
    ``d_S`` the GM scheme uses.  Every true component is matched when the
    estimate has at least as many components; surplus estimated
    components (e.g. the singleton x's of Figure 2c) stay unmatched.
    """
    cost = np.array(
        [
            [
                float(np.linalg.norm(estimated.means[i] - true.means[j]))
                for j in range(true.n_components)
            ]
            for i in range(estimated.n_components)
        ]
    )
    from scipy.optimize import linear_sum_assignment  # scipy.optimize is slow to import

    rows, cols = linear_sum_assignment(cost)
    matches = []
    for i, j in zip(rows.tolist(), cols.tolist()):
        matches.append(
            ComponentMatch(
                estimated_index=i,
                true_index=j,
                mean_distance=float(cost[i, j]),
                weight_error=float(abs(estimated.weights[i] - true.weights[j])),
                cov_frobenius_error=float(
                    np.linalg.norm(estimated.covs[i] - true.covs[j], ord="fro")
                ),
            )
        )
    matched_estimated = {match.estimated_index for match in matches}
    matched_true = {match.true_index for match in matches}
    return GmmRecovery(
        matches=tuple(matches),
        unmatched_estimated=tuple(
            i for i in range(estimated.n_components) if i not in matched_estimated
        ),
        unmatched_true=tuple(j for j in range(true.n_components) if j not in matched_true),
    )
