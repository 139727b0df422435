"""Ablation experiments for the design choices the paper calls out.

Each function regenerates one ablation series:

- :func:`run_topology_ablation` — Section 6 claims convergence on *any*
  connected topology; measure how topology shape affects speed.
- :func:`run_gossip_variant_ablation` — Section 4.1's push / pull /
  push-pull communication patterns.
- :func:`run_k_ablation` — the compression bound ``k`` versus estimate
  quality on the fence-fire workload.
- :func:`run_quantum_ablation` — the weight quantum ``q``: the paper
  assumes ``q << 1/n``; coarse lattices should visibly distort weights.
- :func:`run_scheme_ablation` — centroids versus Gaussians versus
  histograms on anisotropic data (Figure 1's claim, at network scale).
- :func:`run_centralized_gap` — the distributed GM estimate versus
  centralised EM and k-means on identical data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.convergence import disagreement
from repro.core.node import ClassifierNode
from repro.core.scheme import SummaryScheme
from repro.core.weights import Quantization
from repro.data.generators import fence_fire_mixture, fence_fire_values, two_cluster_values
from repro.experiments.common import Scale, PAPER, run_experiment_sweep, run_until_convergence
from repro.ml.em import fit_gmm_em
from repro.ml.gmm import GaussianMixtureModel
from repro.ml.kmeans import weighted_kmeans
from repro.ml.linalg import regularize_covariance
from repro.network import topology
from repro.schemes import make_scheme
from repro.schemes.gaussian import classification_to_gmm
from repro.schemes.gm import GaussianMixtureScheme
from repro.sweep import SweepSpec

__all__ = [
    "AblationRow",
    "ablation_cell",
    "run_topology_ablation",
    "run_gossip_variant_ablation",
    "run_k_ablation",
    "run_quantum_ablation",
    "run_scheme_ablation",
    "run_centralized_gap",
    "weighted_assignment_accuracy",
]


@dataclass(frozen=True)
class AblationRow:
    """One configuration's outcome: a label plus named measurements."""

    label: str
    metrics: dict[str, float]

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]


def weighted_assignment_accuracy(
    nodes: Sequence[ClassifierNode],
    labels: np.ndarray,
) -> float:
    """Fraction of value weight assigned to the "right" collection.

    Thin alias for :func:`repro.analysis.assignment.mean_node_accuracy`:
    collections are matched one-to-one to ground-truth classes via
    provenance-weighted Hungarian assignment, and weight landing anywhere
    else counts as incorrect (penalising over-fragmentation).
    """
    from repro.analysis.assignment import mean_node_accuracy

    return mean_node_accuracy(nodes, labels)


# ----------------------------------------------------------------------
# The sweep cell behind every grid-shaped ablation
# ----------------------------------------------------------------------
_TOPOLOGY_NAMES = ("complete", "ring", "grid", "geometric", "small_world")


#: The scheme ablation's histogram binning: 48 bins over the 1-D values.
_HISTOGRAM_BINNING = {"low": -4.0, "high": 12.0, "bins": 48}


def ablation_cell(params: dict) -> dict:
    """One grid-shaped ablation configuration as a sweep cell.

    ``mode`` selects the series (``topology`` / ``variant`` / ``k`` /
    ``quantum`` / ``scheme``); the run scale travels as a plain dict so
    the cell is self-contained in a pool worker.
    """
    mode = str(params["mode"])
    scale = Scale.from_dict(params["scale"])
    seed = int(params["seed"])
    n = int(params["n"])

    if mode == "topology":
        graph = topology.make_topology(str(params["topology"]), n, seed)
        graph_n = graph.number_of_nodes()
        values = two_cluster_values(graph_n, seed)
        scheme = GaussianMixtureScheme(seed=seed)
        run_scale = scale.with_overrides(
            n_nodes=graph_n, max_rounds=max(scale.max_rounds, 60 * graph_n)
        )
        engine, nodes, rounds = run_until_convergence(
            values, scheme, k=2, scale=run_scale, seed=seed, graph=graph
        )
        return {
            "n": graph_n,
            "rounds": rounds,
            "messages": engine.metrics.messages_sent,
            "disagreement": float(disagreement(nodes, scheme)),
        }

    if mode == "variant":
        values = two_cluster_values(n, seed)
        scheme = GaussianMixtureScheme(seed=seed)
        engine, nodes, rounds = run_until_convergence(
            values, scheme, k=2, scale=scale.with_overrides(n_nodes=n), seed=seed,
            graph=topology.complete(n), variant=str(params["variant"]),
        )
        return {
            "rounds": rounds,
            "messages": engine.metrics.messages_sent,
            "disagreement": float(disagreement(nodes, scheme)),
        }

    if mode == "k":
        values, _ = fence_fire_values(n, seed=seed)
        source = fence_fire_mixture()
        scheme = GaussianMixtureScheme(seed=seed)
        _, nodes, rounds = run_until_convergence(
            values, scheme, k=int(params["k"]), scale=scale.with_overrides(n_nodes=n), seed=seed
        )
        recovered = classification_to_gmm(nodes[0].classification)
        return {
            "rounds": rounds,
            "collections": recovered.n_components,
            "loglik_per_value": float(recovered.log_likelihood(values) / n),
            "loglik_source": float(source.log_likelihood(values) / n),
        }

    if mode == "quantum":
        quanta_per_unit = int(params["quanta_per_unit"])
        values = two_cluster_values(n, seed)
        from repro.protocols.classification import build_classification_network

        engine, nodes = build_classification_network(
            values,
            GaussianMixtureScheme(seed=seed),
            k=2,
            graph=topology.complete(n),
            seed=seed,
            quantization=Quantization(quanta_per_unit),
            engine=scale.engine,
        )
        engine.run(scale.max_rounds)
        true_balance = 0.5
        balance_errors = []
        for node in nodes:
            relative = node.classification.relative_weights()
            balance_errors.append(abs(float(np.max(relative)) - true_balance))
        return {
            "avg_balance_error": float(np.mean(balance_errors)),
            "total_quanta_conserved": float(
                sum(node.total_quanta for node in nodes) == n * quanta_per_unit
            ),
        }

    if mode == "scheme":
        rng = np.random.default_rng(seed)
        half = n // 2
        tight = rng.normal(0.0, 0.3, size=half)
        wide = rng.normal(4.0, 2.0, size=n - half)
        values = np.concatenate([tight, wide])[:, None]
        labels = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
        scheme_name = str(params["scheme"])
        scheme: SummaryScheme
        scheme = make_scheme(
            scheme_name, **(_HISTOGRAM_BINNING if scheme_name == "histogram" else {})
        )
        _, nodes, rounds = run_until_convergence(
            values, scheme, k=2, scale=scale.with_overrides(n_nodes=n), seed=seed, track_aux=True
        )
        return {
            "rounds": rounds,
            "weight_accuracy": float(weighted_assignment_accuracy(nodes, labels)),
        }

    raise ValueError(f"unknown ablation cell mode {mode!r}")


def _ablation_sweep(name: str, cells: list[dict], scale: Scale, seed: int) -> dict:
    spec = SweepSpec(
        name=name,
        runner="repro.experiments.ablations:ablation_cell",
        base_seed=seed,
        cells=cells,
    )
    return run_experiment_sweep(spec, scale)


def _cell(scale: Scale, seed: int, n: int, mode: str, label: str, **extra) -> dict:
    return {
        "label": label,
        "mode": mode,
        "n": n,
        "seed": seed,
        "scale": scale.as_dict(),
        **extra,
    }


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------
def run_topology_ablation(scale: Scale = PAPER, seed: int = 11) -> list[AblationRow]:
    """Rounds-to-convergence of the GM algorithm across topology shapes.

    Sparse topologies mix at random-walk speed (rounds grow roughly with
    the square of the diameter), so the network is capped at 36 nodes to
    keep the sweep bounded; the comparison is *between topologies at
    equal n*.
    """
    n = min(scale.n_nodes, 36)
    cells = [
        _cell(scale, seed, n, "topology", label=name, topology=name)
        for name in _TOPOLOGY_NAMES
    ]
    results = _ablation_sweep("ablation-topology", cells, scale, seed)
    return [
        AblationRow(
            label=name,
            metrics={
                "n": float(results[name]["n"]),
                "rounds": float(results[name]["rounds"]),
                "messages": float(results[name]["messages"]),
                "disagreement": results[name]["disagreement"],
            },
        )
        for name in _TOPOLOGY_NAMES
    ]


# ----------------------------------------------------------------------
# Gossip variant
# ----------------------------------------------------------------------
def run_gossip_variant_ablation(scale: Scale = PAPER, seed: int = 12) -> list[AblationRow]:
    """push vs pull vs push-pull on the complete graph."""
    n = min(scale.n_nodes, 200)
    variants = ("push", "pull", "pushpull")
    cells = [
        _cell(scale, seed, n, "variant", label=variant, variant=variant)
        for variant in variants
    ]
    results = _ablation_sweep("ablation-gossip-variant", cells, scale, seed)
    return [
        AblationRow(
            label=variant,
            metrics={
                "rounds": float(results[variant]["rounds"]),
                "messages": float(results[variant]["messages"]),
                "disagreement": results[variant]["disagreement"],
            },
        )
        for variant in variants
    ]


# ----------------------------------------------------------------------
# k bound
# ----------------------------------------------------------------------
def run_k_ablation(
    scale: Scale = PAPER, seed: int = 13, ks: Sequence[int] = (3, 5, 7, 10)
) -> list[AblationRow]:
    """Compression bound k versus fence-fire estimate quality."""
    n = min(scale.n_nodes, 300)
    labels = [f"k={k}" for k in ks]
    cells = [
        _cell(scale, seed, n, "k", label=label, k=k) for label, k in zip(labels, ks)
    ]
    results = _ablation_sweep("ablation-k", cells, scale, seed)
    return [
        AblationRow(
            label=label,
            metrics={
                "k": float(k),
                "rounds": float(results[label]["rounds"]),
                "collections": float(results[label]["collections"]),
                "loglik_per_value": results[label]["loglik_per_value"],
                "loglik_source": results[label]["loglik_source"],
            },
        )
        for label, k in zip(labels, ks)
    ]


# ----------------------------------------------------------------------
# Quantum q
# ----------------------------------------------------------------------
def run_quantum_ablation(
    scale: Scale = PAPER,
    seed: int = 14,
    quanta: Sequence[int] = (4, 16, 256, 1 << 20),
) -> list[AblationRow]:
    """Weight-lattice resolution versus weight fidelity.

    With a coarse lattice (quanta_per_unit small, i.e. q large) the split
    rule rounds aggressively and relative weights wander; the paper's
    assumption ``q << 1/n`` corresponds to the finest setting.
    """
    n = min(scale.n_nodes, 128)
    labels = [f"1/q={quanta_per_unit}" for quanta_per_unit in quanta]
    cells = [
        _cell(scale, seed, n, "quantum", label=label, quanta_per_unit=quanta_per_unit)
        for label, quanta_per_unit in zip(labels, quanta)
    ]
    results = _ablation_sweep("ablation-quantum", cells, scale, seed)
    return [
        AblationRow(
            label=label,
            metrics={
                "quanta_per_unit": float(quanta_per_unit),
                "avg_balance_error": results[label]["avg_balance_error"],
                "total_quanta_conserved": results[label]["total_quanta_conserved"],
            },
        )
        for label, quanta_per_unit in zip(labels, quanta)
    ]


# ----------------------------------------------------------------------
# Scheme comparison
# ----------------------------------------------------------------------
def run_scheme_ablation(scale: Scale = PAPER, seed: int = 15) -> list[AblationRow]:
    """Centroids vs Gaussians vs histograms on anisotropic 1-D data.

    Figure 1's situation at network scale: a tight cluster at 0
    (sigma 0.3) and a wide one at 4 (sigma 2.0).  The optimal boundary
    sits near the tight cluster; the centroid rule puts it at the
    midpoint, swallowing part of the wide cluster's near tail.  Accuracy
    is measured as correctly-assigned value weight via provenance.
    """
    n = min(scale.n_nodes, 200)
    scheme_names = ("centroid", "gaussian_mixture", "histogram")
    cells = [
        _cell(scale, seed, n, "scheme", label=name, scheme=name) for name in scheme_names
    ]
    results = _ablation_sweep("ablation-scheme", cells, scale, seed)
    return [
        AblationRow(
            label=name,
            metrics={
                "rounds": float(results[name]["rounds"]),
                "weight_accuracy": results[name]["weight_accuracy"],
            },
        )
        for name in scheme_names
    ]


# ----------------------------------------------------------------------
# Centralised gap
# ----------------------------------------------------------------------
def run_centralized_gap(scale: Scale = PAPER, seed: int = 16) -> list[AblationRow]:
    """Distributed GM versus centralised EM and k-means on the same data."""
    n = min(scale.n_nodes, 400)
    values, _ = fence_fire_values(n, seed=seed)
    k = 3
    rng = np.random.default_rng(seed)

    run_scale = scale.with_overrides(n_nodes=n)
    _, nodes, rounds = run_until_convergence(
        values, GaussianMixtureScheme(seed=seed), k=7, scale=run_scale, seed=seed
    )
    distributed = classification_to_gmm(nodes[0].classification)

    centralized_em = fit_gmm_em(values, k, rng).model

    clustering = weighted_kmeans(values, k, rng)
    km_weights = np.array(
        [np.sum(clustering.labels == j) for j in range(k)], dtype=float
    )
    km_covs = np.stack(
        [
            regularize_covariance(
                np.cov(values[clustering.labels == j].T)
                if np.sum(clustering.labels == j) > 1
                else np.eye(values.shape[1])
            )
            for j in range(k)
        ]
    )
    centralized_km = GaussianMixtureModel(km_weights, clustering.centroids, km_covs)

    return [
        AblationRow(
            "distributed_gm",
            {"loglik_per_value": distributed.log_likelihood(values) / n, "rounds": float(rounds)},
        ),
        AblationRow(
            "centralized_em",
            {"loglik_per_value": centralized_em.log_likelihood(values) / n, "rounds": 0.0},
        ),
        AblationRow(
            "centralized_kmeans",
            {"loglik_per_value": centralized_km.log_likelihood(values) / n, "rounds": 0.0},
        ),
    ]
