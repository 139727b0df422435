"""Kernel-level byte-parity: batched kernels vs their unbatched anchors.

Every batched kernel of the receive/merge loop (in
:mod:`repro.ml.reduction`, :mod:`repro.ml.gaussian` and
:mod:`repro.schemes.centroid`) carries a byte-parity contract with the
sequential reference it replaced (the centroid scheme's ``merge_set``,
:func:`repro.ml.gaussian.pool_moments`, the incremental greedy
partition, the per-row distance walk).  These tests pin
the contract directly at the kernel boundary — randomized inputs,
``tobytes()`` equality, no tolerance — so a future "optimisation" that
perturbs accumulation order fails here before any network-level suite
notices drift.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.collection import Collection
from repro.core.packed import PackedState, flatten_groups
from repro.core.weights import Quantization
from repro.ml.gaussian import pool_moments, pool_moments_groups
from repro.ml.reduction import compact_labels, maximin_seed_walk, pairwise_sq_matrix
from repro.schemes.centroid import CentroidScheme, greedy_partition, weighted_average_groups
from repro.schemes.gm import GaussianMixtureScheme

QUANT = Quantization(16)


def _flat(groups):
    """One problem's groups as the flat ``(members, sizes)`` the batched merges take."""
    return flatten_groups([groups], [0])


def _random_groups(rng: np.random.Generator, n: int) -> list[list[int]]:
    """A random partition of ``range(n)`` into non-empty groups."""
    order = rng.permutation(n).tolist()
    cuts = sorted(rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False).tolist())
    groups, start = [], 0
    for cut in cuts + [n]:
        if cut > start:
            groups.append(order[start:cut])
        start = cut
    return groups


class TestPairwiseSqMatrix:
    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_matches_per_row_reference(self, d):
        rng = np.random.default_rng(d)
        points = rng.normal(size=(13, d))
        matrix = pairwise_sq_matrix(points)
        for row in range(13):
            reference = np.sum((points - points[row]) ** 2, axis=1)
            assert matrix[row].tobytes() == reference.tobytes()


class TestMaximinSeedWalk:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(11, 2))
        weights = rng.uniform(0.5, 4.0, size=11)
        matrix = pairwise_sq_matrix(points)
        for k in (1, 3, 11):
            chosen = maximin_seed_walk(weights, matrix, k)
            # Scalar reference: heaviest first, then greedy farthest point.
            ref = [int(np.argmax(weights))]
            closest = matrix[ref[0]]
            for _ in range(1, k):
                candidate = int(np.argmax(closest))
                if closest[candidate] <= 0.0:
                    break
                ref.append(candidate)
                closest = np.minimum(closest, matrix[candidate])
            assert chosen == ref

    def test_coincident_points_stop_early(self):
        points = np.zeros((4, 2))
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        matrix = pairwise_sq_matrix(points)
        assert maximin_seed_walk(weights, matrix, 4) == [3]


class TestCompactLabels:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_searchsorted_unique(self, seed):
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, 9, size=40)
        compacted, occupied = compact_labels(assignment)
        reference = np.searchsorted(np.unique(assignment), assignment)
        assert compacted.tobytes() == reference.tobytes()
        assert occupied == len(np.unique(assignment))


class TestWeightedAverageGroups:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_centroid_merge_set(self, seed):
        """The batched average must replay the scheme's sequential one."""
        rng = np.random.default_rng(seed)
        n = 12
        rows = rng.normal(size=(n, 3))
        quanta = rng.integers(1, 1 << 12, size=n, dtype=np.int64)
        groups = _random_groups(rng, n)
        scheme = CentroidScheme()
        batched = weighted_average_groups(rows, quanta, *_flat(groups))
        for gi, group in enumerate(groups):
            reference = scheme.merge_set([(rows[i], float(quanta[i])) for i in group])
            assert batched[gi].tobytes() == reference.tobytes()

    def test_identical_rows_short_circuit_bytes(self):
        """Byte-identical groups adopt the row verbatim (no float dust)."""
        row = np.array([0.1, 0.2, 0.30000000000000004])
        rows = np.stack([row, row, row + 1.0])
        quanta = np.array([3, 5, 7], dtype=np.int64)
        out = weighted_average_groups(rows, quanta, *_flat([[0, 1], [2]]))
        assert out[0].tobytes() == row.tobytes()
        assert out[1].tobytes() == (row + 1.0).tobytes()


class TestPoolMomentsGroups:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pool_moments_per_group(self, seed):
        rng = np.random.default_rng(seed)
        n = 14
        means = rng.normal(size=(n, 2)) * 4
        covs = np.stack([np.eye(2) * s for s in rng.uniform(0.2, 2.0, size=n)])
        quanta = rng.integers(1, 1 << 12, size=n, dtype=np.int64)
        groups = _random_groups(rng, n)
        b_means, b_covs = pool_moments_groups(quanta, means, covs, *_flat(groups))
        for gi, group in enumerate(groups):
            idx = np.asarray(group, dtype=np.intp)
            ref_mean, ref_cov = pool_moments(
                quanta[idx].astype(float), means[idx], covs[idx]
            )
            assert b_means[gi].tobytes() == ref_mean.tobytes()
            assert b_covs[gi].tobytes() == ref_cov.tobytes()

    def test_identical_components_short_circuit(self):
        mean = np.array([1.5, -2.5])
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        means = np.stack([mean, mean])
        covs = np.stack([cov, cov])
        quanta = np.array([9, 11], dtype=np.int64)
        b_means, b_covs = pool_moments_groups(quanta, means, covs, *_flat([[0, 1]]))
        ref_mean, ref_cov = pool_moments(quanta.astype(float), means, covs)
        assert b_means[0].tobytes() == ref_mean.tobytes()
        assert b_covs[0].tobytes() == ref_cov.tobytes()

    def test_mixed_group_sizes_route_through_buckets(self):
        rng = np.random.default_rng(99)
        n = 9
        means = rng.normal(size=(n, 2))
        covs = np.stack([np.eye(2)] * n)
        quanta = rng.integers(1, 100, size=n, dtype=np.int64)
        groups = [[0], [1, 2], [3, 4], [5, 6, 7, 8]]  # three size buckets
        b_means, b_covs = pool_moments_groups(quanta, means, covs, *_flat(groups))
        assert b_means.shape == (4, 2)
        for gi, group in enumerate(groups):
            idx = np.asarray(group, dtype=np.intp)
            ref_mean, ref_cov = pool_moments(
                quanta[idx].astype(float), means[idx], covs[idx]
            )
            assert b_means[gi].tobytes() == ref_mean.tobytes()
            assert b_covs[gi].tobytes() == ref_cov.tobytes()


class TestGreedyPartition:
    def _collections(self, rng, n, scheme, minimums=0):
        out = []
        for index in range(n):
            quanta = 1 if index < minimums else int(rng.integers(2, 1 << 8))
            out.append(
                Collection(
                    summary=np.asarray(rng.normal(size=2), dtype=float),
                    quanta=quanta,
                )
            )
        return out

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("minimums", [0, 2])
    def test_object_and_packed_paths_agree(self, seed, minimums):
        """The kernel behind partition_packed must reproduce the object
        path's groups exactly — same merge sequence, same tie-breaks."""
        rng = np.random.default_rng(seed)
        scheme = CentroidScheme()
        collections = self._collections(rng, 10, scheme, minimums=minimums)
        object_groups = scheme.partition(collections, 3, QUANT)
        packed = PackedState(
            quanta=np.array([c.quanta for c in collections], dtype=np.int64),
            columns={"position": np.stack([c.summary for c in collections])},
        )
        packed_groups = scheme.partition_packed(packed, 3, QUANT)
        assert packed_groups == object_groups

    def test_respects_k_bound_and_partitions_indices(self):
        rng = np.random.default_rng(21)
        positions = rng.normal(size=(12, 2))
        weights = rng.uniform(1.0, 5.0, size=12)
        heavy = np.ones(12, dtype=bool)
        groups = greedy_partition(positions, weights, heavy, 4)
        assert len(groups) <= 4
        flat = sorted(index for group in groups for index in group)
        assert flat == list(range(12))

    def test_minimum_weight_singletons_are_merged(self):
        rng = np.random.default_rng(22)
        positions = rng.normal(size=(6, 2)) * 10
        weights = np.array([1.0, 5.0, 5.0, 5.0, 5.0, 5.0])
        heavy = np.array([False, True, True, True, True, True])
        groups = greedy_partition(positions, weights, heavy, 6)
        for group in groups:
            if 0 in group:
                assert len(group) >= 2  # rule 2: the minimum never stays alone

    def test_zero_collections_rejected(self):
        with pytest.raises(ValueError):
            greedy_partition(np.empty((0, 2)), np.empty(0), np.empty(0, dtype=bool), 3)


class TestGmPartitionParity:
    """GM: object vs packed partitions share one array core; pin it."""

    @pytest.mark.parametrize("seed", range(3))
    def test_object_and_packed_paths_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = 9
        collections = [
            Collection(
                summary=GaussianMixtureScheme(seed=0).val_to_summary(
                    rng.normal(size=2) * 5
                ),
                quanta=int(rng.integers(2, 1 << 10)),
            )
            for _ in range(n)
        ]
        object_scheme = GaussianMixtureScheme(seed=7)
        packed_scheme = GaussianMixtureScheme(seed=7)
        object_groups = object_scheme.partition(collections, 3, QUANT)
        packed = PackedState(
            quanta=np.array([c.quanta for c in collections], dtype=np.int64),
            columns=packed_scheme.pack_summaries([c.summary for c in collections]),
        )
        packed_groups = packed_scheme.partition_packed(packed, 3, QUANT)
        assert packed_groups == object_groups
