"""Synthetic workload generators for the paper's experiments."""

from repro.data.generators import (
    OutlierScenario,
    fence_fire_mixture,
    fence_fire_values,
    load_scenario,
    outlier_scenario,
    standard_normal_values,
    two_cluster_values,
)

__all__ = [
    "OutlierScenario",
    "fence_fire_mixture",
    "fence_fire_values",
    "load_scenario",
    "outlier_scenario",
    "standard_normal_values",
    "two_cluster_values",
]
