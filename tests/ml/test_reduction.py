"""EM-based l-GM -> k-GM mixture reduction (the GM scheme's partition)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packed import PackedState, flatten_groups
from repro.core.weights import Quantization
from repro.ml.gaussian import pool_moments
from repro.ml import reduction
from repro.ml.reduction import em_iterations_total, reduce_mixture, reduce_mixture_batch
from repro.schemes.gm import GaussianMixtureScheme


def groups_of(labels):
    """A label row's groups: ascending labels, ascending indices."""
    buckets = {}
    for index, label in enumerate(np.asarray(labels).tolist()):
        buckets.setdefault(label, []).append(index)
    return tuple(tuple(buckets[label]) for label in sorted(buckets))


def component_block(rng, center, count, spread=0.4):
    means = rng.normal(center, spread, size=(count, 2))
    covs = np.stack([0.05 * np.eye(2)] * count)
    weights = rng.uniform(0.5, 2.0, size=count)
    return weights, means, covs


class TestTrivialPath:
    def test_l_leq_k_keeps_singletons(self, rng):
        weights, means, covs = component_block(rng, [0, 0], 3)
        result = reduce_mixture(weights, means, covs, k=5, rng=rng)
        assert result.groups == ((0,), (1,), (2,))
        assert result.converged

    def test_k_one_merges_everything(self, rng):
        weights, means, covs = component_block(rng, [0, 0], 4)
        result = reduce_mixture(weights, means, covs, k=1, rng=rng)
        assert result.groups == ((0, 1, 2, 3),)
        mean, cov = pool_moments(weights, means, covs)
        assert np.allclose(result.model.means[0], mean)
        assert np.allclose(result.model.covs[0], cov, atol=1e-10)


class TestGrouping:
    def test_groups_partition_indices(self, rng):
        weights = rng.uniform(0.5, 2.0, size=10)
        means = rng.normal(size=(10, 2)) * 5
        covs = np.stack([0.1 * np.eye(2)] * 10)
        result = reduce_mixture(weights, means, covs, k=3, rng=rng)
        flattened = sorted(index for group in result.groups for index in group)
        assert flattened == list(range(10))
        assert len(result.groups) <= 3

    def test_separated_blocks_grouped_together(self, rng):
        w1, m1, c1 = component_block(rng, [0, 0], 5)
        w2, m2, c2 = component_block(rng, [20, 20], 5)
        result = reduce_mixture(
            np.concatenate([w1, w2]), np.vstack([m1, m2]), np.vstack([c1, c2]), k=2, rng=rng
        )
        groups = sorted(sorted(group) for group in result.groups)
        assert groups == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    def test_model_weights_are_group_sums(self, rng):
        w1, m1, c1 = component_block(rng, [0, 0], 4)
        w2, m2, c2 = component_block(rng, [15, 15], 4)
        weights = np.concatenate([w1, w2])
        result = reduce_mixture(
            weights, np.vstack([m1, m2]), np.vstack([c1, c2]), k=2, rng=rng
        )
        for group, model_weight in zip(result.groups, result.model.weights):
            expected = weights[list(group)].sum() / weights.sum()
            assert model_weight == pytest.approx(expected, rel=1e-9)

    def test_moment_matched_group_model(self, rng):
        w1, m1, c1 = component_block(rng, [0, 0], 4)
        w2, m2, c2 = component_block(rng, [15, 15], 4)
        weights = np.concatenate([w1, w2])
        means = np.vstack([m1, m2])
        covs = np.vstack([c1, c2])
        result = reduce_mixture(weights, means, covs, k=2, rng=rng)
        for j, group in enumerate(result.groups):
            idx = list(group)
            mean, cov = pool_moments(weights[idx], means[idx], covs[idx])
            assert np.allclose(result.model.means[j], mean, atol=1e-10)
            assert np.allclose(result.model.covs[j], cov, atol=1e-10)

    def test_zero_covariance_singletons_supported(self, rng):
        """Fresh input values arrive with exactly-zero covariance matrices."""
        means = np.vstack([rng.normal([0, 0], 0.3, (4, 2)), rng.normal([9, 9], 0.3, (4, 2))])
        covs = np.zeros((8, 2, 2))
        weights = np.ones(8)
        result = reduce_mixture(weights, means, covs, k=2, rng=rng)
        groups = sorted(sorted(group) for group in result.groups)
        assert groups == [[0, 1, 2, 3], [4, 5, 6, 7]]


class TestValidation:
    def test_rejects_misaligned_shapes(self, rng):
        with pytest.raises(ValueError):
            reduce_mixture(np.ones(3), np.zeros((2, 2)), np.zeros((2, 2, 2)), k=2, rng=rng)

    def test_rejects_k_below_one(self, rng):
        with pytest.raises(ValueError):
            reduce_mixture(np.ones(2), np.zeros((2, 2)), np.zeros((2, 2, 2)), k=0, rng=rng)

    def test_deterministic_given_seed(self):
        generator = np.random.default_rng(3)
        weights = generator.uniform(0.5, 2.0, size=12)
        means = generator.normal(size=(12, 2)) * 8
        covs = np.stack([0.2 * np.eye(2)] * 12)
        a = reduce_mixture(weights, means, covs, k=3, rng=np.random.default_rng(1))
        b = reduce_mixture(weights, means, covs, k=3, rng=np.random.default_rng(1))
        assert a.groups == b.groups


# ----------------------------------------------------------------------
# The stacked core: a problem solved in a batch is the problem solved alone
# ----------------------------------------------------------------------
def _problem(rng, size, d, anchors, jitter, heavy, spread):
    """One pooled set: ``(quanta, means, covs)``.

    Means sit on ``anchors`` distinct points (so maximin seeding stops
    early and only one or two groups may be occupied) plus ``jitter``;
    ``heavy`` puts a wide component of 2^40 quanta first, which leaves
    the light groups empty after an E-step (the repair path) and can
    keep the assignment cycling up to ``max_iterations``.
    """
    points = rng.normal(size=(anchors, d)) * 4.0
    means = points[rng.integers(0, anchors, size=size)]
    if jitter:
        means = means + rng.normal(size=means.shape) * jitter
    factors = rng.normal(size=(size, d, d)) * spread
    covs = factors @ np.swapaxes(factors, -1, -2)
    quanta = rng.integers(1, 9, size=size).astype(np.int64)
    if heavy:
        covs[0] = np.eye(d) * 100.0
        quanta[0] = 1 << 40
    return quanta, means, covs


problem_shapes = st.lists(
    st.tuples(
        st.integers(0, 23),  # size above k
        st.integers(1, 3),  # distinct anchor points
        st.sampled_from([0.0, 1e-3, 1.0]),  # jitter
        st.booleans(),  # heavy wide component
        st.sampled_from([0.0, 0.05, 1.0]),  # covariance scale
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    d=st.sampled_from([2, 3]),
    max_iterations=st.sampled_from([1, 2, 25]),
    shapes=problem_shapes,
)
def test_batched_solves_equal_solves_alone(seed, k, d, max_iterations, shapes):
    rng = np.random.default_rng(seed)
    problems = [
        _problem(rng, k + 1 + min(extra, 23 - k), d, anchors, jitter, heavy, spread)
        for extra, anchors, jitter, heavy, spread in shapes
    ]
    alone = []
    before = em_iterations_total()
    for quanta, means, covs in problems:
        alone.append(
            reduce_mixture(
                quanta.astype(float), means, covs, k, None, max_iterations, build_model=False
            )
        )
    alone_iterations = em_iterations_total() - before
    by_size: dict[int, list[int]] = {}
    for index, (quanta, _, _) in enumerate(problems):
        by_size.setdefault(len(quanta), []).append(index)
    before = em_iterations_total()
    for members in by_size.values():
        labels, iterations, converged = reduce_mixture_batch(
            np.stack([problems[i][0] for i in members]).astype(float),
            np.stack([problems[i][1] for i in members]),
            np.stack([problems[i][2] for i in members]),
            k,
            max_iterations,
        )
        for row, index in enumerate(members):
            assert groups_of(labels[row]) == alone[index].groups
            assert iterations[row] == alone[index].iterations
            assert converged[row] == alone[index].converged
    assert em_iterations_total() - before == alone_iterations

    # The GM scheme buckets a mixed-size block itself and then applies the
    # minimum-weight rule per problem, exactly as partition_packed does.
    scheme = GaussianMixtureScheme(seed=0, reduction_iterations=max_iterations)
    packed = [
        PackedState(quanta=quanta, columns={"mean": means, "cov": covs})
        for quanta, means, covs in problems
    ]
    quantization = Quantization()
    bounds = np.cumsum([0] + [len(state) for state in packed]).tolist()
    members, sizes = scheme.partition_packed_batch(
        PackedState.concat_many(packed), bounds, k, quantization
    )
    alone_members, alone_sizes = flatten_groups(
        [scheme.partition_packed(state, k, quantization) for state in packed], bounds
    )
    assert members.tolist() == alone_members.tolist()
    assert sizes.tolist() == alone_sizes.tolist()


def test_stack_repairs_and_caps_like_one_problem(monkeypatch):
    """Pinned inputs that take the empty-group repair and hit the cap."""
    rng = np.random.default_rng(0)
    problems = [_problem(rng, 8, 2, 3, 1.0, True, 0.0) for _ in range(4)]
    repairs = []
    original = np.argsort

    def counting_argsort(values, *args, **kwargs):
        repairs.append(1)  # the repair is the reduction's only argsort
        return original(values, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    alone = [
        reduce_mixture(quanta.astype(float), means, covs, 3, None, 50, build_model=False)
        for quanta, means, covs in problems
    ]
    solo_repairs = len(repairs)
    labels, iterations, converged = reduce_mixture_batch(
        np.stack([p[0] for p in problems]).astype(float),
        np.stack([p[1] for p in problems]),
        np.stack([p[2] for p in problems]),
        3,
        50,
    )
    assert solo_repairs > 0 and len(repairs) == 2 * solo_repairs
    assert not all(result.converged for result in alone)
    batch = zip(map(groups_of, labels), iterations.tolist(), converged.tolist())
    assert list(batch) == [(r.groups, r.iterations, r.converged) for r in alone]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_stacked_scores_are_the_bytes_of_each_problem(d, count):
    """The stacked product is byte-safe: one BLAS call per slice."""
    rng = np.random.default_rng(d * 10 + count)
    problems, size = 7, 9
    means = rng.normal(size=(problems, size, d)) * 3.0
    factors = rng.normal(size=(problems, size, d, d))
    covs = factors @ np.swapaxes(factors, -1, -2)
    features = np.stack([reduction._score_features(m, c) for m, c in zip(means, covs)])
    weights = rng.uniform(1.0, 9.0, size=(problems, count))
    group_means = rng.normal(size=(problems * count, d))
    group_factors = rng.normal(size=(problems * count, d, d))
    group_covs = group_factors @ np.swapaxes(group_factors, -1, -2)
    stacked = reduction._score_stack(features, d, weights, group_means, group_covs)
    for p in range(problems):
        rows = slice(p * count, (p + 1) * count)
        alone = reduction._score_matrix(
            features[p], d, weights[p], group_means[rows], group_covs[rows]
        )
        assert stacked[p].tobytes() == alone.tobytes()


def test_stack_runs_in_bounded_slices(monkeypatch):
    rng = np.random.default_rng(1)
    problems = [_problem(rng, 8, 2, 2, 1.0, False, 0.05) for _ in range(5)]
    stacked = [np.stack([p[i] for p in problems]) for i in range(3)]
    whole = reduce_mixture_batch(stacked[0].astype(float), stacked[1], stacked[2], 3)
    monkeypatch.setattr(reduction, "_BATCH_ROWS", 16)  # two problems per slice
    sliced = reduce_mixture_batch(stacked[0].astype(float), stacked[1], stacked[2], 3)
    assert [part.tolist() for part in sliced] == [part.tolist() for part in whole]


def test_small_problems_keep_singletons():
    quanta = np.ones((3, 2))
    labels, _, _ = reduce_mixture_batch(quanta, np.zeros((3, 2, 2)), np.zeros((3, 2, 2, 2)), 2)
    assert [groups_of(row) for row in labels] == [((0,), (1,))] * 3
