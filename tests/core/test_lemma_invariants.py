"""Executable versions of the paper's proof invariants (Lemmas 1 and 2).

These tests run real gossip executions with auxiliary tracking switched on
and re-check, at every round, the invariants the convergence proof is
built on:

- Lemma 1: for every collection anywhere in the system,
  ``f(c.aux) == c.summary`` and ``||c.aux||_1 == c.weight``;
- Lemma 2: each maximal reference angle over the global pool is
  monotonically non-increasing;
- system-wide weight conservation (the precondition of both).
"""

import numpy as np
import pytest

from repro.core.convergence import max_reference_angles, pool_collections
from repro.core.weights import Quantization
from repro.ml.gaussian import pool_moments
from repro.network.topology import complete, ring
from repro.protocols.classification import build_classification_network
from repro.schemes.centroid import CentroidScheme
from repro.schemes.gm import GaussianMixtureScheme

N = 16
ROUNDS = 25


def run_with_aux(values, scheme, k, graph, seed=0):
    engine, nodes = build_classification_network(
        values,
        scheme,
        k=k,
        graph=graph,
        seed=seed,
        track_aux=True,
        validate=True,
    )
    return engine, nodes


@pytest.fixture
def values(rng):
    return np.vstack(
        [rng.normal([0, 0], 0.5, size=(N // 2, 2)), rng.normal([6, 6], 0.5, size=(N // 2, 2))]
    )


class TestLemma1:
    """f(aux) == summary and |aux|_1 == weight, throughout execution."""

    def test_centroid_scheme(self, values):
        engine, nodes = run_with_aux(values, CentroidScheme(), k=3, graph=complete(N))
        for _ in range(ROUNDS):
            engine.run(1)
            for collection in pool_collections(nodes):
                # Equation 2: the aux L1 norm equals the weight.
                assert collection.aux.l1 == pytest.approx(collection.quanta, rel=1e-9)
                # Equation 1: the summary equals f applied to the aux vector.
                expected = (
                    collection.aux.components[:, None] * values
                ).sum(axis=0) / collection.aux.l1
                assert np.allclose(collection.summary, expected, atol=1e-6)

    def test_gaussian_scheme(self, values):
        engine, nodes = run_with_aux(
            values, GaussianMixtureScheme(seed=1), k=3, graph=complete(N)
        )
        zero_covs = np.zeros((N, 2, 2))
        for _ in range(ROUNDS):
            engine.run(1)
            for collection in pool_collections(nodes):
                assert collection.aux.l1 == pytest.approx(collection.quanta, rel=1e-9)
                mean, cov = pool_moments(collection.aux.components, values, zero_covs)
                assert np.allclose(collection.summary.mean, mean, atol=1e-6)
                assert np.allclose(collection.summary.cov, cov, atol=1e-5)


class TestLemma2:
    """Maximal reference angles over the pool never increase."""

    @pytest.mark.parametrize("graph_builder", [complete, ring])
    def test_monotone_max_angles(self, values, graph_builder):
        engine, nodes = run_with_aux(
            values, GaussianMixtureScheme(seed=2), k=3, graph=graph_builder(N)
        )
        previous = max_reference_angles(pool_collections(nodes))
        for _ in range(ROUNDS):
            engine.run(1)
            current = max_reference_angles(pool_collections(nodes))
            assert np.all(current <= previous + 1e-9)
            previous = current


class TestWeightConservation:
    def test_total_quanta_invariant_without_crashes(self, values):
        quantization = Quantization()
        engine, nodes = run_with_aux(
            values, GaussianMixtureScheme(seed=3), k=3, graph=complete(N)
        )
        expected = N * quantization.unit
        for _ in range(ROUNDS):
            engine.run(1)
            assert sum(node.total_quanta for node in nodes) == expected

    def test_aux_provenance_sums_to_unit_per_input(self, values):
        """Every input value's weight is fully accounted for across the pool."""
        engine, nodes = run_with_aux(values, CentroidScheme(), k=3, graph=complete(N))
        engine.run(10)
        totals = np.zeros(N)
        for collection in pool_collections(nodes):
            totals += collection.aux.components
        assert np.allclose(totals, Quantization().unit, rtol=1e-9)
