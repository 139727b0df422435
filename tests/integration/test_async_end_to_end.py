"""Asynchronous end-to-end runs: the convergence theorem's own setting."""

import numpy as np
import pytest

from repro.core import ClassifierNode, Quantization
from repro.core.convergence import disagreement
from repro.network.kernel import SimulationKernel
from repro.network.schedulers import PoissonScheduler
from repro.network.simulator import RoundRobinSelector
from repro.network.topology import complete, ring
from repro.protocols.classification import ClassificationProtocol
from repro.schemes.gm import GaussianMixtureScheme

from tests.conftest import two_cluster_values

N = 16


def build_async(values, scheme, k, graph, seed=0, **kwargs):
    nodes = [
        ClassifierNode(i, values[i], scheme, k=k, quantization=Quantization())
        for i in range(len(values))
    ]
    engine = SimulationKernel(
        graph,
        {i: ClassificationProtocol(nodes[i]) for i in range(len(values))},
        PoissonScheduler(**kwargs),
        seed=seed,
    )
    return engine, nodes


def run_until(engine, time):
    """Process every event before ``time`` (the Poisson scheduler's drive)."""
    engine.scheduler.run_until(engine, time)


class TestAsynchronousConvergence:
    def test_converges_on_complete_graph(self):
        values = two_cluster_values(N, seed=1)
        scheme = GaussianMixtureScheme(seed=1)
        engine, nodes = build_async(values, scheme, k=2, graph=complete(N), seed=1)
        run_until(engine, 200.0)
        assert disagreement(nodes, scheme) < 0.05

    def test_converges_on_ring_with_long_delays(self):
        values = two_cluster_values(N, seed=2)
        scheme = GaussianMixtureScheme(seed=2)
        engine, nodes = build_async(
            values, scheme, k=2, graph=ring(N), seed=2, delay_range=(0.5, 5.0)
        )
        run_until(engine, 1500.0)
        assert disagreement(nodes, scheme) < 0.2

    def test_round_robin_fairness_default(self):
        values = two_cluster_values(N, seed=3)
        scheme = GaussianMixtureScheme(seed=3)
        engine, _ = build_async(values, scheme, k=2, graph=ring(N), seed=3)
        assert isinstance(engine.selector, RoundRobinSelector)


class TestGlobalPoolInvariants:
    def test_weight_conserved_including_in_flight(self):
        """Section 6.1's pool: collections at nodes AND inside channels."""
        values = two_cluster_values(N, seed=4)
        scheme = GaussianMixtureScheme(seed=4)
        engine, nodes = build_async(
            values, scheme, k=2, graph=complete(N), seed=4, delay_range=(0.5, 4.0)
        )
        expected = N * Quantization().unit
        for checkpoint in [5.0, 20.0, 80.0]:
            run_until(engine, checkpoint)
            total = sum(node.total_quanta for node in nodes)
            for payload in engine.in_flight_payloads():
                total += sum(collection.quanta for collection in payload)
            assert total == expected

    def test_collection_count_bounded_by_k(self):
        values = two_cluster_values(N, seed=5)
        scheme = GaussianMixtureScheme(seed=5)
        engine, nodes = build_async(values, scheme, k=3, graph=complete(N), seed=5)
        run_until(engine, 100.0)
        assert all(len(node.classification) <= 3 for node in nodes)
