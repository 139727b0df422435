"""Synthetic sensor workloads — the paper's three evaluation data sets.

The paper evaluates on synthetic data only (its setting is a simulated
1,000-node sensor network), so these generators *are* the original
workloads, parameterised exactly where the paper gives numbers:

- :func:`fence_fire_mixture` / :func:`fence_fire_values` — Section 5.3.1:
  temperature readings from sensors on a fence whose right side is near a
  fire; values are (position, temperature) pairs drawn from a 3-component
  Gaussian mixture in R^2 (Figure 2a).  The paper does not publish the
  component parameters, so representative ones are chosen to match the
  described geometry (ambient left/middle, hot correlated right).
- :func:`outlier_scenario` — Section 5.3.2: 950 values from the standard
  normal in R^2 plus 50 outliers from N((0, delta), 0.1*I) (Figure 3a).
- :func:`load_scenario` — the introduction's grid-computing motivation:
  machine loads concentrated around 10% and 90%.
- :func:`two_cluster_values` — two balanced, well-separated clusters in
  R^2, the workload of the ablations, the scalability experiments and
  the sweep's ``two_cluster`` cells.
- :func:`center_values` / :func:`paper_values` — three exact cluster
  centers, alone or plus unit Gaussian noise (Section 5.3's inputs).

Callers that pick inputs by name build them through :data:`DATASETS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.ml.gaussian import density as normal_density
from repro.ml.gmm import GaussianMixtureModel

__all__ = [
    "CENTERS",
    "DATASETS",
    "center_values",
    "make_dataset",
    "paper_values",
    "fence_fire_mixture",
    "fence_fire_values",
    "OutlierScenario",
    "outlier_scenario",
    "load_scenario",
    "standard_normal_values",
    "two_cluster_values",
]


def fence_fire_mixture() -> GaussianMixtureModel:
    """The Figure 2a source distribution: three Gaussians in R^2.

    Coordinates are (fence position, temperature).  Two ambient clusters
    sit on the left and middle of the fence at moderate temperature; the
    right-side cluster is hotter, with position-temperature correlation
    (closer to the fire means hotter), giving the tilted equidensity
    ellipse the paper's figure shows.
    """
    return GaussianMixtureModel(
        weights=np.array([0.40, 0.35, 0.25]),
        means=np.array(
            [
                [2.0, 20.0],  # left fence, ambient
                [6.0, 23.0],  # middle fence, ambient
                [9.5, 38.0],  # right fence, near the fire
            ]
        ),
        covs=np.array(
            [
                [[1.20, 0.10], [0.10, 1.50]],
                [[0.80, -0.30], [-0.30, 1.80]],
                [[0.60, 1.00], [1.00, 6.00]],
            ]
        ),
    )


def fence_fire_values(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw the Figure 2b input set; returns ``(values, component_labels)``."""
    rng = np.random.default_rng(seed)
    return fence_fire_mixture().sample(rng, n)


@dataclass(frozen=True)
class OutlierScenario:
    """The Section 5.3.2 workload: mostly-good readings plus outliers.

    Attributes
    ----------
    values:
        All sensor readings, shape ``(n, 2)``; good values first.
    is_outlier_source:
        Boolean mask: True where the value was drawn from the outlier
        distribution (ground-truth provenance, used only by analysis).
    delta:
        The outlier-centre offset (the paper's sweep parameter).
    true_mean:
        The mean of the *good* distribution — the target of the robust
        average, always the origin here.
    """

    values: np.ndarray
    is_outlier_source: np.ndarray
    delta: float
    true_mean: np.ndarray

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    def density_outlier_indices(self, f_min: float) -> np.ndarray:
        """Indices the *paper* counts as outliers: density below ``f_min``.

        Section 5.3.2 defines outliers by probability density under the
        good (standard normal) distribution rather than by provenance —
        "Outliers are defined to be values with probability density lower
        than f_min" — so good-distribution values in the far tail count
        as outliers too.
        """
        d = self.values.shape[1]
        densities = normal_density(self.values, np.zeros(d), np.eye(d))
        return np.where(densities < f_min)[0]


def outlier_scenario(
    delta: float,
    n_good: int = 950,
    n_outliers: int = 50,
    seed: int = 0,
) -> OutlierScenario:
    """Generate the Figure 3a data set for a given outlier offset ``delta``."""
    if n_good < 1 or n_outliers < 0:
        raise ValueError("need at least one good value and non-negative outliers")
    rng = np.random.default_rng(seed)
    good = rng.standard_normal((n_good, 2))
    outliers = rng.standard_normal((n_outliers, 2)) * np.sqrt(0.1) + np.array([0.0, delta])
    values = np.vstack([good, outliers])
    mask = np.zeros(n_good + n_outliers, dtype=bool)
    mask[n_good:] = True
    return OutlierScenario(
        values=values,
        is_outlier_source=mask,
        delta=float(delta),
        true_mean=np.zeros(2),
    )


def standard_normal_values(n: int, dimension: int = 2, seed: int = 0) -> np.ndarray:
    """Plain N(0, I) readings — the crash-free averaging sanity workload."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dimension))


def two_cluster_values(n: int, seed: int = 0, separation: float = 8.0) -> np.ndarray:
    """Balanced 2-cluster R^2 data: the first ``n // 2`` values around the
    origin, the rest around ``(separation, separation)``, both with standard
    deviation 0.6 per coordinate."""
    rng = np.random.default_rng(seed)
    half = n // 2
    return np.vstack(
        [
            rng.normal([0.0, 0.0], 0.6, size=(half, 2)),
            rng.normal([separation, separation], 0.6, size=(n - half, 2)),
        ]
    )


#: Three well-separated, exactly representable cluster centers: every
#: merge of same-center summaries is float-exact, so a population drawn
#: from them reaches a byte-stable classification.
CENTERS = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])


def center_values(n: int, seed: int = 0) -> np.ndarray:
    """Each reading one of :data:`CENTERS`, drawn uniformly."""
    rng = np.random.default_rng(seed)
    return CENTERS[rng.integers(0, len(CENTERS), size=n)]


def paper_values(n: int, seed: int = 0) -> np.ndarray:
    """The paper's noisy inputs: :func:`center_values`' draw plus unit
    Gaussian noise from the same generator, so no two readings are equal."""
    rng = np.random.default_rng(seed)
    return CENTERS[rng.integers(0, len(CENTERS), size=n)] + rng.normal(size=(n, 2))


def outlier_count(n: int, fraction: float = 0.05) -> int:
    """The outliers among ``n`` readings: the paper's 5%, rounded to nearest, at least one."""
    return max(1, round(n * fraction))


#: Inputs by name.  Each builder takes the node count and a seed, then
#: its own shape parameters: ``outlier`` needs ``delta`` and
#: ``n_outliers`` (of the ``n`` readings, the last ones: see
#: :func:`outlier_count`), ``two_cluster`` takes ``separation``.
DATASETS: dict[str, Callable[..., np.ndarray]] = {
    "centers": center_values,
    "normal": standard_normal_values,
    "paper": paper_values,
    "outlier": lambda n, seed, delta, n_outliers: outlier_scenario(
        delta, n_good=n - n_outliers, n_outliers=n_outliers, seed=seed
    ).values,
    "two_cluster": two_cluster_values,
    "fence_fire": lambda n, seed: fence_fire_values(n, seed=seed)[0],
}


def make_dataset(name: str, n: int, seed: int = 0, **shape: float) -> np.ndarray:
    """The :data:`DATASETS` input ``name``: ``n`` readings drawn from ``seed``."""
    try:
        build = DATASETS[name]
    except KeyError:
        raise ValueError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}") from None
    return build(n, seed=seed, **shape)


def load_scenario(
    n: int,
    light_fraction: float = 0.5,
    light_mean: float = 10.0,
    heavy_mean: float = 90.0,
    spread: float = 6.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Machine loads for the introduction's load-balancing example.

    Returns ``(loads, is_heavy_source)``: 1-D load percentages, clipped to
    [0, 100], drawn around ``light_mean`` and ``heavy_mean``.
    """
    if not 0.0 < light_fraction < 1.0:
        raise ValueError("light_fraction must be strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    n_light = int(round(n * light_fraction))
    n_heavy = n - n_light
    light = rng.normal(light_mean, spread, size=n_light)
    heavy = rng.normal(heavy_mean, spread, size=n_heavy)
    loads = np.clip(np.concatenate([light, heavy]), 0.0, 100.0)
    mask = np.zeros(n, dtype=bool)
    mask[n_light:] = True
    order = rng.permutation(n)
    return loads[order], mask[order]
