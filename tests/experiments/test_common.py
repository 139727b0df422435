"""Scale presets and the convergence-driven runner."""

import numpy as np
import pytest

from repro.experiments.common import BENCH, FAST, PAPER, Scale, preset, run_until_convergence
from repro.network.topology import complete
from repro.schemes.centroid import CentroidScheme

from tests.conftest import two_cluster_values


class TestPresets:
    def test_paper_matches_publication(self):
        assert PAPER.n_nodes == 1000

    def test_lookup(self):
        assert preset("fast") is FAST
        assert preset("bench") is BENCH
        assert preset("paper") is PAPER

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            preset("gigantic")

    def test_with_overrides_is_copy(self):
        modified = FAST.with_overrides(n_nodes=7)
        assert modified.n_nodes == 7
        assert FAST.n_nodes == 100


class TestRunner:
    def test_stops_early_when_settled(self):
        values = two_cluster_values(20, seed=0)
        scale = Scale(name="tiny", n_nodes=20, max_rounds=200, convergence_tolerance=1e-5)
        _, nodes, rounds = run_until_convergence(
            values, CentroidScheme(), k=2, scale=scale, seed=0
        )
        assert rounds < 200  # converged well before the cap
        assert len(nodes) == 20

    def test_respects_round_cap(self):
        values = two_cluster_values(16, seed=0)
        scale = Scale(name="tiny", n_nodes=16, max_rounds=3, convergence_tolerance=0.0)
        engine, _, rounds = run_until_convergence(
            values, CentroidScheme(), k=2, scale=scale, seed=0
        )
        assert rounds == 3
        assert engine.metrics.rounds == 3

    def test_custom_graph_accepted(self):
        values = two_cluster_values(12, seed=0)
        scale = Scale(name="tiny", n_nodes=12, max_rounds=5)
        engine, _, _ = run_until_convergence(
            values, CentroidScheme(), k=2, scale=scale, seed=0, graph=complete(12)
        )
        assert engine.neighbors == {
            node: tuple(peer for peer in range(12) if peer != node) for node in range(12)
        }
