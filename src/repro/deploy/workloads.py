"""Deployable workloads: the paper's figure scenarios as (seed, n) recipes.

A deployed cluster has no central place to scatter inputs from, so every
workload here is a *pure function of* ``(name, n, seed)``: each node
process regenerates the full input set locally and takes its own row.
This keeps the node processes self-sufficient (a docker-composed node
needs only its id and the recipe) while guaranteeing that the cluster as
a whole holds exactly the input set the matching in-memory simulation
holds — which is what makes deployment-vs-simulation agreement checks
meaningful.

``fig1`` is the Section 5.3.1 fence-fire scenario behind Figures 1/2
(2-D temperature readings, three Gaussian components); ``fig4`` is the
Section 5.3.2 outlier/robust-average scenario behind Figures 3/4 (good
readings around the origin plus a displaced outlier cloud, ``k = 2``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scheme import SummaryScheme
from repro.core.serialization import SummaryCodec, codec_for_scheme
from repro.data import make_dataset
from repro.data.generators import outlier_count
from repro.schemes import make_scheme

__all__ = ["WORKLOADS", "Workload", "build_workload"]


@dataclass(frozen=True)
class Workload:
    """Everything a node (or the reference simulation) needs to run."""

    name: str
    values: np.ndarray
    scheme: SummaryScheme
    k: int
    codec: SummaryCodec

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


def _fig1(n: int, seed: int) -> tuple[np.ndarray, SummaryScheme, int]:
    return make_dataset("fence_fire", n, seed), make_scheme("gm"), 3


def _fig4(n: int, seed: int) -> tuple[np.ndarray, SummaryScheme, int]:
    values = make_dataset("outlier", n, seed, delta=6.0, n_outliers=outlier_count(n))
    return values, make_scheme("gm"), 2


WORKLOADS = {
    "fig1": _fig1,
    "fig4": _fig4,
}


def build_workload(name: str, n: int, seed: int) -> Workload:
    """Materialise a workload recipe; every caller with the same
    ``(name, n, seed)`` gets byte-identical values."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if n < 2:
        raise ValueError("a cluster needs at least 2 nodes")
    values, scheme, k = builder(n, seed)
    dimension = int(values.shape[1]) if values.ndim > 1 else 1
    return Workload(
        name=name,
        values=values,
        scheme=scheme,
        k=k,
        codec=codec_for_scheme(scheme, dimension),
    )
