"""End-to-end distributed classification: the Definition 4 guarantee.

All nodes take inputs, gossip, and must converge to a *common*
classification of the complete input set — across schemes and topologies,
with exact system-wide weight conservation throughout.
"""

import numpy as np
import pytest

from repro.core.convergence import classification_distance, disagreement
from repro.core.weights import Quantization
from repro.ml.kmeans import weighted_kmeans
from repro.network import topology
from repro.protocols.classification import build_classification_network
from repro.schemes.centroid import CentroidScheme
from repro.schemes.gm import GaussianMixtureScheme

from tests.conftest import two_cluster_values

N = 24


def converge(values, scheme, k, graph, rounds, seed=0, **kwargs):
    engine, nodes = build_classification_network(
        values, scheme, k=k, graph=graph, seed=seed, **kwargs
    )
    engine.run(rounds)
    return engine, nodes


class TestCommonClassification:
    @pytest.mark.parametrize(
        "graph_builder,rounds",
        [
            (lambda: topology.complete(N), 40),
            (lambda: topology.ring(N), 2500),
            (lambda: topology.grid(4, 6), 800),
            (lambda: topology.watts_strogatz(N, k=4, seed=1), 400),
        ],
        ids=["complete", "ring", "grid", "small_world"],
    )
    def test_gm_scheme_all_nodes_agree(self, graph_builder, rounds):
        values = two_cluster_values(N, seed=1)
        scheme = GaussianMixtureScheme(seed=1)
        _, nodes = converge(values, scheme, k=2, graph=graph_builder(), rounds=rounds)
        assert disagreement(nodes, scheme) < 0.05

    def test_centroid_scheme_agreement(self):
        values = two_cluster_values(N, seed=2)
        scheme = CentroidScheme()
        _, nodes = converge(values, scheme, k=2, graph=topology.complete(N), rounds=40)
        assert disagreement(nodes, scheme) < 1e-3

    def test_classification_reflects_true_clusters(self):
        values = two_cluster_values(N, seed=3)
        scheme = GaussianMixtureScheme(seed=3)
        _, nodes = converge(values, scheme, k=2, graph=topology.complete(N), rounds=40)
        classification = nodes[0].classification
        means = sorted(
            np.asarray(collection.summary.mean).tolist()
            for collection in classification
        )
        assert np.allclose(means[0], [0, 0], atol=0.5)
        assert np.allclose(means[1], [8, 8], atol=0.5)
        # Balanced clusters: half the weight in each collection.
        assert np.allclose(classification.relative_weights(), 0.5, atol=0.05)

    def test_agreement_with_centralized_kmeans(self):
        """The distributed centroid classification lands on the same
        cluster means as centralised k-means over all inputs."""
        values = two_cluster_values(N, seed=4)
        scheme = CentroidScheme()
        _, nodes = converge(values, scheme, k=2, graph=topology.complete(N), rounds=40)
        central = weighted_kmeans(values, 2, np.random.default_rng(0))
        distributed = sorted(
            np.asarray(collection.summary).tolist() for collection in nodes[0].classification
        )
        centralized = sorted(central.centroids.tolist())
        for got, want in zip(distributed, centralized):
            assert np.allclose(got, want, atol=0.25)


class TestConservation:
    def test_total_weight_invariant_every_round(self):
        values = two_cluster_values(N, seed=5)
        engine, nodes = build_classification_network(
            values, GaussianMixtureScheme(seed=5), k=2, graph=topology.complete(N), seed=5
        )
        expected = N * Quantization().unit
        for _ in range(30):
            engine.run(1)
            assert sum(node.total_quanta for node in nodes) == expected

    def test_weight_lost_only_to_crashes(self):
        values = two_cluster_values(N, seed=6)
        engine, nodes = build_classification_network(
            values, GaussianMixtureScheme(seed=6), k=2, graph=topology.complete(N), seed=6
        )
        engine.run(5)
        engine.crash(3)
        engine.run(10)
        live_quanta = sum(
            nodes[node_id].total_quanta for node_id in engine.live_nodes
        )
        # Whatever the survivors hold plus what died with node 3 and what
        # was dropped in transit accounts exactly for the initial total.
        assert live_quanta <= N * Quantization().unit
        assert live_quanta > 0


class TestGossipVariants:
    @pytest.mark.parametrize("variant", ["push", "pull", "pushpull"])
    def test_all_variants_converge(self, variant):
        values = two_cluster_values(N, seed=7)
        scheme = GaussianMixtureScheme(seed=7)
        _, nodes = converge(
            values, scheme, k=2, graph=topology.complete(N), rounds=50, variant=variant
        )
        assert disagreement(nodes, scheme) < 0.05


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        values = two_cluster_values(N, seed=8)
        runs = []
        for _ in range(2):
            scheme = GaussianMixtureScheme(seed=8)
            _, nodes = converge(values, scheme, k=2, graph=topology.complete(N), rounds=15, seed=8)
            runs.append(nodes)
        for node_a, node_b in zip(*runs):
            distance = classification_distance(
                node_a.classification, node_b.classification, GaussianMixtureScheme(seed=8)
            )
            assert distance == pytest.approx(0.0, abs=1e-12)
