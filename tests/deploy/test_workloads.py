"""Deterministic workload construction for self-sufficient node processes."""

import numpy as np
import pytest

from repro.deploy.workloads import WORKLOADS, build_workload


class TestBuildWorkload:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_same_spec_regenerates_identical_values(self, name):
        """Every spawned node rebuilds the full array from (name, n, seed)
        and takes its own row — byte-identical regeneration is what makes
        the node processes self-sufficient (no value shipping)."""
        first = build_workload(name, n=12, seed=5)
        second = build_workload(name, n=12, seed=5)
        assert np.array_equal(first.values, second.values)
        assert first.values.shape[0] == 12
        assert first.k >= 1
        assert first.codec is not None

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_seed_changes_values(self, name):
        a = build_workload(name, n=12, seed=5)
        b = build_workload(name, n=12, seed=6)
        assert not np.array_equal(a.values, b.values)

    def test_unknown_workload_is_an_error(self):
        with pytest.raises((KeyError, ValueError)):
            build_workload("not-a-workload", n=4, seed=0)

    def test_too_few_nodes_is_an_error(self):
        with pytest.raises(ValueError):
            build_workload("fig1", n=1, seed=0)

    @pytest.mark.parametrize("n", [30, 70])
    def test_fig4_holds_the_experiments_outlier_count(self, n):
        """The deployed ``fig4`` workload counts its outliers by the rule
        ``run fig4`` uses: 5% of the readings, rounded to nearest."""
        values = build_workload("fig4", n=n, seed=0).values
        assert int((values[:, 1] > 3.5).sum()) == max(1, round(0.05 * n))
