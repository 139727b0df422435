"""Micro-benchmarks of the protocol's hot operations.

These time the primitives that dominate a real deployment's cost budget —
the per-message merge (EM reduction), the per-send split, and a full
gossip round — using pytest-benchmark's statistical timing (many rounds,
unlike the one-shot figure regenerations).
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.collection import Collection
from repro.core.weights import Quantization
from repro.ml.em import fit_gmm_em
from repro.ml.reduction import reduce_mixture
from repro.network.topology import complete
from repro.protocols.classification import build_classification_network
from repro.protocols.push_sum import build_push_sum_network
from repro.schemes.gaussian import GaussianSummary
from repro.schemes.gm import GaussianMixtureScheme

from repro.data.generators import outlier_scenario


@pytest.fixture(scope="module")
def gaussian_collections():
    generator = np.random.default_rng(0)
    collections = []
    for center in ([0, 0], [8, 8]):
        for _ in range(7):
            mean = generator.normal(center, 0.5, size=2)
            collections.append(
                Collection(
                    summary=GaussianSummary(mean=mean, cov=0.2 * np.eye(2)),
                    quanta=int(generator.integers(1 << 10, 1 << 16)),
                )
            )
    return collections


def test_partition_em_reduction(benchmark, gaussian_collections):
    """One partition call: 14 collections reduced to k=2 by hard EM."""
    scheme = GaussianMixtureScheme(seed=0)
    lattice = Quantization()
    groups = benchmark(scheme.partition, gaussian_collections, 2, lattice)
    assert len(groups) <= 2


def test_mixture_reduction_raw(benchmark):
    """The numerical core: 20-component l-GM to 4-GM."""
    generator = np.random.default_rng(1)
    weights = generator.uniform(0.5, 2.0, 20)
    means = generator.normal(size=(20, 2)) * 6
    covs = np.stack([0.3 * np.eye(2)] * 20)

    def reduce_once():
        return reduce_mixture(weights, means, covs, 4, np.random.default_rng(2))

    result = benchmark(reduce_once)
    assert len(result.groups) <= 4


def test_classification_round_complete_graph(benchmark):
    """One full gossip round: 200 nodes, GM scheme, k=2."""
    scenario = outlier_scenario(10.0, n_good=190, n_outliers=10, seed=0)
    engine, _ = build_classification_network(
        scenario.values,
        GaussianMixtureScheme(seed=0),
        k=2,
        graph=complete(scenario.n),
        seed=0,
    )
    benchmark(engine.run, 1)


def test_push_sum_round(benchmark):
    """One push-sum round at the same size, for comparison."""
    values = np.random.default_rng(0).normal(size=(200, 2))
    engine, _ = build_push_sum_network(values, complete(200), seed=0)
    benchmark(engine.run, 1)


def test_receive_allocation_footprint():
    """Allocation budget of the zero-copy receive path.

    The packed tier's pitch is that a receive operates on views into the
    sender's column arrays instead of materialising per-collection
    objects.  This pins that property: one warm gossip round traced under
    tracemalloc must stay under a per-receive allocation ceiling.  The
    bound is calibrated empirically (~4 KiB/receive observed) with
    several-fold headroom, so it only trips on a structural regression
    (per-row object
    churn returning to the hot path), not on timing noise.
    """
    scenario = outlier_scenario(10.0, n_good=60, n_outliers=4, seed=0)
    engine, nodes = build_classification_network(
        scenario.values,
        GaussianMixtureScheme(seed=0),
        k=2,
        graph=complete(scenario.n),
        seed=0,
    )
    engine.run(3)  # warm: caches filled, classifications near agreement

    before = sum(node.stats.batches_received for node in nodes)
    tracemalloc.start()
    try:
        engine.run(1)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    receives = sum(node.stats.batches_received for node in nodes) - before

    assert receives > 0
    per_receive_kib = peak / receives / 1024.0
    assert per_receive_kib < 24.0, (
        f"receive path allocated {per_receive_kib:.1f} KiB per receive "
        f"(peak {peak / 1024.0:.0f} KiB over {receives} receives)"
    )


def test_centralized_em_fit(benchmark):
    """Centralised EM on 500 points, k=3 (the comparator's cost)."""
    generator = np.random.default_rng(3)
    points = np.vstack(
        [generator.normal(c, 0.8, size=(167, 2)) for c in ([0, 0], [6, 0], [3, 5])]
    )

    def fit():
        return fit_gmm_em(points, 3, np.random.default_rng(4), max_iterations=50)

    result = benchmark(fit)
    assert result.model.n_components == 3
