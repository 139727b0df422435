"""Synthetic workload generators (the paper's evaluation data sets)."""

import numpy as np
import pytest

from repro.analysis.outliers import F_MIN
from repro.data.generators import (
    CENTERS,
    DATASETS,
    fence_fire_mixture,
    fence_fire_values,
    load_scenario,
    make_dataset,
    outlier_scenario,
    standard_normal_values,
)


class TestFenceFire:
    def test_mixture_shape(self):
        mixture = fence_fire_mixture()
        assert mixture.n_components == 3
        assert mixture.dimension == 2
        assert np.isclose(mixture.weights.sum(), 1.0)

    def test_hot_component_is_rightmost(self):
        """The fire is at the right end: hottest component sits there."""
        mixture = fence_fire_mixture()
        hottest = int(np.argmax(mixture.means[:, 1]))
        assert mixture.means[hottest, 0] == mixture.means[:, 0].max()

    def test_values_shape_and_labels(self):
        values, labels = fence_fire_values(200, seed=1)
        assert values.shape == (200, 2)
        assert labels.shape == (200,)
        assert set(np.unique(labels)) <= {0, 1, 2}

    def test_deterministic_given_seed(self):
        a, _ = fence_fire_values(50, seed=9)
        b, _ = fence_fire_values(50, seed=9)
        assert np.array_equal(a, b)


class TestOutlierScenario:
    def test_paper_defaults(self):
        scenario = outlier_scenario(10.0)
        assert scenario.n == 1000
        assert scenario.is_outlier_source.sum() == 50
        assert scenario.delta == 10.0
        assert np.allclose(scenario.true_mean, [0.0, 0.0])

    def test_outlier_cluster_centred_at_delta(self):
        scenario = outlier_scenario(15.0, seed=2)
        outliers = scenario.values[scenario.is_outlier_source]
        assert np.allclose(outliers.mean(axis=0), [0.0, 15.0], atol=0.3)
        # Outlier covariance 0.1 I: tight cluster.
        assert outliers.std(axis=0).max() < 0.6

    def test_good_values_standard_normal(self):
        scenario = outlier_scenario(10.0, seed=2)
        good = scenario.values[~scenario.is_outlier_source]
        assert np.allclose(good.mean(axis=0), [0.0, 0.0], atol=0.15)
        assert np.allclose(good.std(axis=0), 1.0, atol=0.1)

    def test_density_outliers_follow_paper_definition(self):
        """Far outlier cluster is density-flagged; near one is not."""
        far = outlier_scenario(20.0, seed=2)
        flagged = far.density_outlier_indices(F_MIN)
        assert set(np.where(far.is_outlier_source)[0]) <= set(flagged.tolist())
        near = outlier_scenario(0.0, seed=2)
        # At delta=0 the "outliers" sit in the densest region: none flagged
        # from the outlier cluster except possibly good-tail values.
        assert len(near.density_outlier_indices(F_MIN)) < 10

    def test_rejects_invalid_counts(self):
        with pytest.raises(ValueError):
            outlier_scenario(5.0, n_good=0)


class TestStandardNormal:
    def test_shape(self):
        assert standard_normal_values(30, dimension=3, seed=0).shape == (30, 3)


class TestLoadScenario:
    def test_loads_in_percent_range(self):
        loads, _ = load_scenario(200, seed=0)
        assert loads.min() >= 0.0
        assert loads.max() <= 100.0

    def test_bimodal_means(self):
        loads, heavy = load_scenario(2000, spread=2.0, seed=0)
        assert loads[~heavy].mean() == pytest.approx(10.0, abs=0.5)
        assert loads[heavy].mean() == pytest.approx(90.0, abs=0.5)

    def test_light_fraction(self):
        _, heavy = load_scenario(1000, light_fraction=0.3, seed=0)
        assert heavy.sum() == 700

    def test_rejects_degenerate_fraction(self):
        with pytest.raises(ValueError):
            load_scenario(10, light_fraction=1.0)

    def test_shuffled_but_deterministic(self):
        a, _ = load_scenario(50, seed=4)
        b, _ = load_scenario(50, seed=4)
        assert np.array_equal(a, b)


class TestNamedDatasets:
    SHAPES = {"outlier": {"delta": 6.0, "n_outliers": 2}}

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_same_seed_same_bytes(self, name):
        shape = self.SHAPES.get(name, {})
        values = make_dataset(name, 20, 4, **shape)
        assert values.shape == (20, 2)
        assert make_dataset(name, 20, 4, **shape).tobytes() == values.tobytes()
        assert make_dataset(name, 20, 5, **shape).tobytes() != values.tobytes()

    def test_draws_keep_their_recipes(self):
        """``centers`` and ``normal`` are the arena's old inputs, ``paper``
        the benchmark's noisy recipe: labels, then noise, one generator."""
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 3, size=30)
        noisy = CENTERS[labels] + rng.normal(size=(30, 2))
        assert make_dataset("centers", 30, 9).tobytes() == CENTERS[labels].tobytes()
        assert make_dataset("paper", 30, 9).tobytes() == noisy.tobytes()
        normal = np.random.default_rng(9).normal(size=(30, 2))
        assert make_dataset("normal", 30, 9).tobytes() == normal.tobytes()

    def test_unknown_name_lists_the_table(self):
        with pytest.raises(ValueError, match="unknown dataset 'load'") as error:
            make_dataset("load", 20)
        assert all(repr(name) in str(error.value) for name in DATASETS)
