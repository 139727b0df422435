"""Synthetic workload generators for the paper's experiments."""

from repro.data.generators import (
    DATASETS,
    OutlierScenario,
    fence_fire_mixture,
    fence_fire_values,
    load_scenario,
    make_dataset,
    outlier_scenario,
    standard_normal_values,
    two_cluster_values,
)

__all__ = [
    "DATASETS",
    "OutlierScenario",
    "fence_fire_mixture",
    "fence_fire_values",
    "load_scenario",
    "make_dataset",
    "outlier_scenario",
    "standard_normal_values",
    "two_cluster_values",
]
